//! Durable storage for DRAMS: the hybrid log store and the crash-safe
//! log engine.
//!
//! Two halves live here:
//!
//! 1. **The ref-\[9\] hybrid store** (paper §III: "a hybrid approach
//!    combining classical database with blockchain system should offer an
//!    adequate flexibility to find a trade-off between latency, integrity
//!    guarantees and, in case of public chain, cost"). Log entries land in
//!    a fast append-only store immediately ([`kvlog`]); every
//!    `anchor_period` entries the segment's Merkle root is committed to
//!    the blockchain ([`anchor`]). Reads are instant; integrity becomes
//!    unconditional once the covering anchor commits — the
//!    *tamper-exposure window* is the tail not yet anchored, and
//!    experiment E3 measures exactly that trade-off.
//!
//! 2. **The durable log engine** backing crash-recovery: a segmented
//!    append-only log with length-prefixed, checksummed records
//!    ([`segment`]), torn-tail truncation on open, segment rotation and
//!    snapshot+prune compaction ([`wal`]), over pluggable storage
//!    backends with an explicit fsync policy ([`backend`]). On top of it,
//!    [`persist`] gives the chain node a write-ahead journal and full
//!    replay recovery; `drams-core` uses the same engine for the Logging
//!    Interface's unflushed-batch backlog and the Analyser's verification
//!    checkpoint. Experiment E11 crash-restarts each of those services
//!    mid-run and requires byte-identical results.
//!
//! # Example: a crash-safe log
//!
//! ```
//! use drams_store::backend::{Durability, MemBackend};
//! use drams_store::wal::{Wal, WalConfig};
//!
//! # fn main() -> Result<(), drams_store::StoreError> {
//! let config = WalConfig { segment_records: 4, durability: Durability::Flushed };
//! let mut wal = Wal::open(Box::new(MemBackend::new()), config)?;
//! wal.append(b"observation 0")?;
//! wal.append(b"observation 1")?;
//!
//! // The process dies; flushed records survive.
//! wal.simulate_crash()?;
//! let recovered = wal.replay()?;
//! assert_eq!(recovered.len(), 2);
//! assert_eq!(recovered[1], (1, b"observation 1".to_vec()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anchor;
pub mod backend;
pub mod error;
pub mod kvlog;
pub mod persist;
pub mod segment;
pub mod wal;

pub use anchor::{AnchorContract, AnchoredStore, AuditOutcome, ANCHOR_CONTRACT};
pub use backend::{Backend, Durability, FsBackend, MemBackend};
pub use error::StoreError;
pub use kvlog::{KvLog, Segment};
pub use persist::{compact_node_journal, recover_node, WalJournal};
pub use wal::{SnapshotStore, Wal, WalConfig};
