//! Error types for the storage engine.

use std::fmt;

/// Errors from the durable log engine ([`crate::wal`], [`crate::segment`],
/// [`crate::backend`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// An I/O operation on the backing storage failed.
    Io(String),
    /// A segment (or snapshot) is corrupt in a way that torn-tail
    /// truncation must **not** repair: the damage is not at the physical
    /// end of the log, so it cannot be a crash artefact.
    Corrupt {
        /// The file the corruption was found in.
        file: String,
        /// Byte offset of the corrupt record or header.
        offset: u64,
        /// Human-readable diagnosis.
        reason: String,
    },
    /// A record or snapshot payload failed to decode after its checksum
    /// verified — the writer stored something the reader cannot parse.
    Codec(String),
    /// The requested file does not exist in the backend, or the
    /// requested log record is not retained (pruned, or not yet
    /// appended).
    NotFound(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(msg) => write!(f, "storage i/o failed: {msg}"),
            StoreError::Corrupt {
                file,
                offset,
                reason,
            } => {
                write!(f, "corrupt store file `{file}` at byte {offset}: {reason}")
            }
            StoreError::Codec(msg) => write!(f, "stored payload does not decode: {msg}"),
            StoreError::NotFound(name) => write!(f, "not in the store: {name}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

impl From<drams_crypto::CryptoError> for StoreError {
    fn from(e: drams_crypto::CryptoError) -> Self {
        StoreError::Codec(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        let errors = [
            StoreError::Io("disk full".into()),
            StoreError::Corrupt {
                file: "seg-000000.wal".into(),
                offset: 24,
                reason: "checksum mismatch".into(),
            },
            StoreError::Codec("truncated".into()),
            StoreError::NotFound("snapshot.snap".into()),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::other("boom");
        assert!(matches!(StoreError::from(io), StoreError::Io(_)));
    }
}
