//! Error types for the blockchain substrate.

use crate::tx::TxId;
use std::fmt;

/// Errors from chain validation, import and transaction handling.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChainError {
    /// The block's parent is not known to this chain.
    UnknownParent,
    /// The proof-of-work hash does not meet the required difficulty.
    InsufficientWork,
    /// The block declares a different difficulty than the chain requires
    /// at its height.
    WrongDifficulty {
        /// Difficulty the block declares.
        declared: u32,
        /// Difficulty the chain requires.
        required: u32,
    },
    /// The block's height is not parent height + 1.
    WrongHeight,
    /// The transaction Merkle root does not match the block body.
    BadTxRoot,
    /// A transaction signature failed verification.
    BadSignature,
    /// A transaction was already included or already pending.
    DuplicateTransaction,
    /// A transaction nonce does not follow the sender's account nonce.
    NonceMismatch {
        /// Nonce carried by the transaction.
        got: u64,
        /// Nonce the account state expects.
        expected: u64,
    },
    /// The target smart contract is not registered.
    UnknownContract(String),
    /// Contract execution failed.
    Contract(String),
    /// A wire encoding was malformed.
    Malformed(String),
    /// The block exceeds the configured maximum size.
    BlockTooLarge {
        /// Number of transactions in the block.
        txs: usize,
        /// Configured maximum.
        max: usize,
    },
    /// A replayed mined block names a transaction the pool does not hold.
    NotPending(TxId),
    /// The node's write-ahead journal rejected a record — the accepted
    /// transaction or block could not be made durable.
    Journal(String),
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::UnknownParent => write!(f, "unknown parent block"),
            ChainError::InsufficientWork => write!(f, "proof-of-work below difficulty target"),
            ChainError::WrongDifficulty { declared, required } => write!(
                f,
                "wrong difficulty: declared {declared} bits, required {required} bits"
            ),
            ChainError::WrongHeight => write!(f, "block height does not extend its parent"),
            ChainError::BadTxRoot => write!(f, "transaction merkle root mismatch"),
            ChainError::BadSignature => write!(f, "invalid transaction signature"),
            ChainError::DuplicateTransaction => write!(f, "duplicate transaction"),
            ChainError::NonceMismatch { got, expected } => {
                write!(f, "nonce mismatch: got {got}, expected {expected}")
            }
            ChainError::UnknownContract(name) => write!(f, "unknown contract `{name}`"),
            ChainError::Contract(msg) => write!(f, "contract execution failed: {msg}"),
            ChainError::Malformed(what) => write!(f, "malformed encoding: {what}"),
            ChainError::BlockTooLarge { txs, max } => {
                write!(f, "block has {txs} transactions, maximum is {max}")
            }
            ChainError::NotPending(id) => write!(f, "transaction {id} is not pending"),
            ChainError::Journal(msg) => write!(f, "node journal write failed: {msg}"),
        }
    }
}

impl std::error::Error for ChainError {}

impl From<drams_crypto::CryptoError> for ChainError {
    fn from(e: drams_crypto::CryptoError) -> Self {
        match e {
            drams_crypto::CryptoError::InvalidSignature => ChainError::BadSignature,
            other => ChainError::Malformed(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty_lowercase() {
        let errors = [
            ChainError::UnknownParent,
            ChainError::InsufficientWork,
            ChainError::WrongDifficulty {
                declared: 1,
                required: 2,
            },
            ChainError::NonceMismatch {
                got: 5,
                expected: 4,
            },
            ChainError::UnknownContract("x".into()),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn crypto_error_converts() {
        let e: ChainError = drams_crypto::CryptoError::InvalidSignature.into();
        assert_eq!(e, ChainError::BadSignature);
        let e: ChainError = drams_crypto::CryptoError::Malformed("x".into()).into();
        assert!(matches!(e, ChainError::Malformed(_)));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ChainError>();
    }
}
