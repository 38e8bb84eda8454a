//! Storage backends and the durability policy.
//!
//! The log engine ([`crate::wal`]) talks to its storage through the
//! [`Backend`] trait, so the same recovery logic runs against three very
//! different media:
//!
//! * [`MemBackend`] — an in-memory filesystem for tests and the
//!   virtual-time simulation. It tracks the *synced* length of every file
//!   separately from the written length, so
//!   [`MemBackend::simulate_crash`] can model exactly what a power cut
//!   preserves: bytes that were synced survive, buffered bytes vanish.
//! * [`FsBackend`] — a directory of real files for recovery tests and
//!   the E11 storage benchmarks.
//!
//! Whether a write is synced immediately is **not** implicit in the
//! backend: the engine asks for a sync according to its configured
//! [`Durability`], making the fsync/flush trade-off an explicit knob
//! (in-memory for unit tests, [`Durability::Buffered`] for benches,
//! [`Durability::Flushed`] for crash-recovery guarantees).

use crate::error::StoreError;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// When appended bytes are forced to durable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Writes stay in the write buffer until an explicit sync; a crash
    /// loses the unsynced tail (which recovery then truncates). The
    /// fast mode for benchmarks and bulk loads.
    Buffered,
    /// Every record is synced as it is appended; a crash loses nothing
    /// that the engine acknowledged. The mode the crash-recovery
    /// scenarios run under.
    Flushed,
}

/// Abstract append-oriented file storage under a single directory.
///
/// All names are flat (no subdirectories). Implementations must make
/// [`Backend::write_atomic`] all-or-nothing: after a crash the file holds
/// either the old contents or the new, never a mix.
pub trait Backend: std::fmt::Debug {
    /// File names present, in lexicographic order.
    fn list(&self) -> Vec<String>;

    /// Reads a whole file.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] when absent, [`StoreError::Io`] on read
    /// failure.
    fn read(&self, name: &str) -> Result<Vec<u8>, StoreError>;

    /// A file's length in bytes (written, synced or not) without reading
    /// it; `None` when absent.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on failure.
    fn len(&self, name: &str) -> Result<Option<u64>, StoreError>;

    /// Appends bytes to a file, creating it when absent.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write failure.
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError>;

    /// Replaces a file's contents atomically (write-temp + rename) and
    /// durably.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write failure.
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError>;

    /// Truncates a file to `len` bytes (torn-tail recovery).
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] when absent, [`StoreError::Io`] on
    /// failure.
    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StoreError>;

    /// Removes a file (segment pruning). Removing an absent file is not
    /// an error.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on failure.
    fn remove(&mut self, name: &str) -> Result<(), StoreError>;

    /// Forces a file's appended bytes to durable storage.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on failure.
    fn sync(&mut self, name: &str) -> Result<(), StoreError>;

    /// Models a crash: discards whatever a real power cut would lose.
    /// Only meaningful for [`MemBackend`]; durable backends keep
    /// everything that reached the medium and treat this as a no-op.
    fn simulate_crash(&mut self) {}
}

/// Most bytes one chunk of an in-memory file holds. A file is a run of
/// chunks, each full but the last, so an append copies its own bytes and
/// never regrows the file: appending to a 5 MB fold file costs what
/// appending to a 50 KB one does.
const MEM_CHUNK: usize = 64 * 1024;

/// One in-memory file: written bytes, in chunks of at most
/// [`MEM_CHUNK`], plus the synced watermark.
#[derive(Debug, Default, Clone)]
struct MemFile {
    chunks: Vec<Vec<u8>>,
    synced_len: usize,
}

impl MemFile {
    fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |last| (self.chunks.len() - 1) * MEM_CHUNK + last.len())
    }

    fn bytes(&self) -> Vec<u8> {
        self.chunks.concat()
    }

    fn extend(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            if self
                .chunks
                .last()
                .is_none_or(|last| last.len() == MEM_CHUNK)
            {
                // A file that fills a chunk is a big one: its later
                // chunks are allocated whole.
                let capacity = if self.chunks.is_empty() { 0 } else { MEM_CHUNK };
                self.chunks.push(Vec::with_capacity(capacity));
            }
            let chunk = self.chunks.last_mut().expect("ensured above");
            let (now, rest) = bytes.split_at(bytes.len().min(MEM_CHUNK - chunk.len()));
            let need = chunk.len() + now.len();
            if need > chunk.capacity() {
                // The first chunk grows as a `Vec` does, but never past
                // a chunk.
                chunk.reserve_exact(need.max(2 * chunk.capacity()).min(MEM_CHUNK) - chunk.len());
            }
            chunk.extend_from_slice(now);
            bytes = rest;
        }
    }

    fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.chunks.truncate(len.div_ceil(MEM_CHUNK));
            if let Some(last) = self.chunks.last_mut() {
                last.truncate(len - (len - 1) / MEM_CHUNK * MEM_CHUNK);
            }
        }
        self.synced_len = self.synced_len.min(len);
    }
}

/// An in-memory [`Backend`] with crash simulation.
#[derive(Debug, Default, Clone)]
pub struct MemBackend {
    files: BTreeMap<String, MemFile>,
}

impl MemBackend {
    /// Creates an empty in-memory backend.
    #[must_use]
    pub fn new() -> Self {
        MemBackend::default()
    }
}

impl Backend for MemBackend {
    fn list(&self) -> Vec<String> {
        self.files.keys().cloned().collect()
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        self.files
            .get(name)
            .map(MemFile::bytes)
            .ok_or_else(|| StoreError::NotFound(name.to_string()))
    }

    fn len(&self, name: &str) -> Result<Option<u64>, StoreError> {
        Ok(self.files.get(name).map(|f| f.len() as u64))
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        // Look the file up by `&str` first: naming a new entry allocates.
        match self.files.get_mut(name) {
            Some(file) => file.extend(bytes),
            None => {
                let mut file = MemFile::default();
                file.extend(bytes);
                self.files.insert(name.to_string(), file);
            }
        }
        Ok(())
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        // Atomic replace is modelled as durable (rename + fsync).
        let mut file = MemFile::default();
        file.extend(bytes);
        file.synced_len = bytes.len();
        self.files.insert(name.to_string(), file);
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StoreError> {
        let file = self
            .files
            .get_mut(name)
            .ok_or_else(|| StoreError::NotFound(name.to_string()))?;
        file.truncate(len as usize);
        Ok(())
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        self.files.remove(name);
        Ok(())
    }

    fn sync(&mut self, name: &str) -> Result<(), StoreError> {
        if let Some(file) = self.files.get_mut(name) {
            file.synced_len = file.len();
        }
        Ok(())
    }

    fn simulate_crash(&mut self) {
        // A file whose directory entry was never made durable (nothing
        // synced since creation) may survive as an empty file — the
        // "empty segment file" recovery case — so the entry is kept.
        for file in self.files.values_mut() {
            file.truncate(file.synced_len);
        }
    }
}

/// A real-directory [`Backend`] for on-disk recovery tests and the E11
/// storage benchmarks.
#[derive(Debug)]
pub struct FsBackend {
    root: PathBuf,
    /// Cached append handles, so per-record appends do not reopen files.
    #[allow(clippy::type_complexity)]
    handles: HashMap<String, fs::File>,
}

impl FsBackend {
    /// Opens (creating if needed) a backend rooted at `root`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(FsBackend {
            root,
            handles: HashMap::new(),
        })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    fn handle(&mut self, name: &str) -> Result<&mut fs::File, StoreError> {
        if !self.handles.contains_key(name) {
            let file = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.path(name))?;
            self.handles.insert(name.to_string(), file);
        }
        Ok(self.handles.get_mut(name).expect("inserted above"))
    }
}

impl Backend for FsBackend {
    fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(&self.root)
            .into_iter()
            .flatten()
            .flatten()
            .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();
        names.sort();
        names
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        match fs::read(self.path(name)) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(StoreError::NotFound(name.to_string()))
            }
            Err(e) => Err(e.into()),
        }
    }

    fn len(&self, name: &str) -> Result<Option<u64>, StoreError> {
        match fs::metadata(self.path(name)) {
            Ok(meta) => Ok(Some(meta.len())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.handle(name)?.write_all(bytes)?;
        Ok(())
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let tmp = self.path(&format!("{name}.tmp"));
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(bytes)?;
            file.sync_all()?;
        }
        fs::rename(&tmp, self.path(name))?;
        self.handles.remove(name);
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StoreError> {
        self.handles.remove(name);
        let file = match fs::OpenOptions::new().write(true).open(self.path(name)) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::NotFound(name.to_string()))
            }
            Err(e) => return Err(e.into()),
        };
        file.set_len(len)?;
        file.sync_all()?;
        Ok(())
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        self.handles.remove(name);
        match fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn sync(&mut self, name: &str) -> Result<(), StoreError> {
        if let Some(file) = self.handles.get_mut(name) {
            file.flush()?;
            file.sync_all()?;
        }
        Ok(())
    }
}

/// A failing medium for this crate's tests.
#[cfg(test)]
pub(crate) mod testing {
    use super::{Backend, MemBackend};
    use crate::error::StoreError;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// What a [`FaultyBackend`] handle shares with the test.
    #[derive(Debug, Default)]
    pub(crate) struct Medium {
        pub(crate) files: MemBackend,
        /// Every change made so far, as `"<operation> <file>"`.
        pub(crate) changes: Vec<String>,
        /// The change with this index fails and leaves the files alone —
        /// the process died just before it.
        pub(crate) fail_at: Option<usize>,
    }

    /// A [`MemBackend`] the test keeps a handle on: it logs every change
    /// (`append`, `write_atomic`, `truncate`, `remove`, `sync`), can fail
    /// the *n*-th one, and outlives the log it was boxed into.
    #[derive(Debug, Clone, Default)]
    pub(crate) struct FaultyBackend(pub(crate) Rc<RefCell<Medium>>);

    impl FaultyBackend {
        fn change<T>(
            &self,
            what: &str,
            name: &str,
            apply: impl FnOnce(&mut MemBackend) -> Result<T, StoreError>,
        ) -> Result<T, StoreError> {
            let mut medium = self.0.borrow_mut();
            if medium.fail_at == Some(medium.changes.len()) {
                return Err(StoreError::Io(format!("injected failure at {what} {name}")));
            }
            medium.changes.push(format!("{what} {name}"));
            apply(&mut medium.files)
        }

        /// Fails the change after the next `n` (and no other).
        pub(crate) fn fail_after(&self, n: usize) {
            let mut medium = self.0.borrow_mut();
            medium.fail_at = Some(medium.changes.len() + n);
        }

        /// A fresh medium holding a copy of this one's files.
        pub(crate) fn copy(&self) -> FaultyBackend {
            let copy = FaultyBackend::default();
            copy.0.borrow_mut().files = self.0.borrow().files.clone();
            copy
        }

        /// Bytes in `name`, 0 when absent.
        pub(crate) fn len_of(&self, name: &str) -> u64 {
            self.len(name).expect("in-memory").unwrap_or(0)
        }
    }

    impl Backend for FaultyBackend {
        fn list(&self) -> Vec<String> {
            self.0.borrow().files.list()
        }
        fn read(&self, name: &str) -> Result<Vec<u8>, StoreError> {
            self.0.borrow().files.read(name)
        }
        fn len(&self, name: &str) -> Result<Option<u64>, StoreError> {
            self.0.borrow().files.len(name)
        }
        fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
            self.change("append", name, |f| f.append(name, bytes))
        }
        fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
            self.change("write_atomic", name, |f| f.write_atomic(name, bytes))
        }
        fn truncate(&mut self, name: &str, len: u64) -> Result<(), StoreError> {
            self.change("truncate", name, |f| f.truncate(name, len))
        }
        fn remove(&mut self, name: &str) -> Result<(), StoreError> {
            self.change("remove", name, |f| f.remove(name))
        }
        fn sync(&mut self, name: &str) -> Result<(), StoreError> {
            self.change("sync", name, |f| f.sync(name))
        }
        fn simulate_crash(&mut self) {
            self.0.borrow_mut().files.simulate_crash();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_round_trips() {
        let mut b = MemBackend::new();
        b.append("a.wal", b"hello ").unwrap();
        b.append("a.wal", b"world").unwrap();
        assert_eq!(b.read("a.wal").unwrap(), b"hello world");
        assert_eq!(b.len("a.wal").unwrap(), Some(11));
        assert_eq!(b.len("absent").unwrap(), None);
        assert_eq!(b.list(), vec!["a.wal".to_string()]);
        b.truncate("a.wal", 5).unwrap();
        assert_eq!(b.read("a.wal").unwrap(), b"hello");
        b.remove("a.wal").unwrap();
        assert!(matches!(b.read("a.wal"), Err(StoreError::NotFound(_))));
        b.remove("a.wal").unwrap(); // idempotent
    }

    #[test]
    fn mem_crash_drops_unsynced_tail_only() {
        let mut b = MemBackend::new();
        b.append("a.wal", b"durable").unwrap();
        b.sync("a.wal").unwrap();
        b.append("a.wal", b" buffered").unwrap();
        b.simulate_crash();
        assert_eq!(b.read("a.wal").unwrap(), b"durable");
        // A never-synced file survives as an empty file.
        let mut b = MemBackend::new();
        b.append("b.wal", b"gone").unwrap();
        b.simulate_crash();
        assert_eq!(b.read("b.wal").unwrap(), b"");
    }

    #[test]
    fn a_mem_file_across_chunks_appends_truncates_and_crashes_as_one() {
        let bytes: Vec<u8> = (0..3 * MEM_CHUNK + 7).map(|i| (i % 251) as u8).collect();
        let mut b = MemBackend::new();
        b.append("f", &bytes[..10]).unwrap();
        b.append("f", &bytes[10..MEM_CHUNK + 3]).unwrap();
        b.sync("f").unwrap();
        b.append("f", &bytes[MEM_CHUNK + 3..]).unwrap();
        assert_eq!(b.read("f").unwrap(), bytes);
        assert_eq!(b.len("f").unwrap(), Some(bytes.len() as u64));
        for len in [
            2 * MEM_CHUNK + 1,
            2 * MEM_CHUNK,
            MEM_CHUNK + 1,
            MEM_CHUNK,
            1,
            0,
        ] {
            let mut cut = b.clone();
            cut.truncate("f", len as u64).unwrap();
            assert_eq!(cut.read("f").unwrap(), &bytes[..len], "cut at {len}");
            cut.append("f", &bytes[len..]).unwrap();
            assert_eq!(cut.read("f").unwrap(), bytes, "regrown from {len}");
        }
        b.simulate_crash();
        assert_eq!(b.read("f").unwrap(), &bytes[..MEM_CHUNK + 3]);
    }

    #[test]
    fn mem_write_atomic_is_durable() {
        let mut b = MemBackend::new();
        b.write_atomic("snap", b"state").unwrap();
        b.simulate_crash();
        assert_eq!(b.read("snap").unwrap(), b"state");
    }

    #[test]
    fn fs_backend_round_trips() {
        let dir = std::env::temp_dir().join(format!("drams-store-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let mut b = FsBackend::open(&dir).unwrap();
            b.append("a.wal", b"hello ").unwrap();
            b.append("a.wal", b"world").unwrap();
            assert_eq!(b.len("a.wal").unwrap(), Some(11), "before any sync");
            assert_eq!(b.len("absent").unwrap(), None);
            b.sync("a.wal").unwrap();
            assert_eq!(b.read("a.wal").unwrap(), b"hello world");
            b.truncate("a.wal", 5).unwrap();
            b.append("a.wal", b"!").unwrap();
            b.sync("a.wal").unwrap();
            assert_eq!(b.read("a.wal").unwrap(), b"hello!");
            b.write_atomic("snap", b"state").unwrap();
            assert_eq!(b.read("snap").unwrap(), b"state");
            assert_eq!(b.list(), vec!["a.wal".to_string(), "snap".to_string()]);
            b.remove("a.wal").unwrap();
            assert!(matches!(b.read("a.wal"), Err(StoreError::NotFound(_))));
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
