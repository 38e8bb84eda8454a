//! Cryptographic substrate for the DRAMS reproduction.
//!
//! This crate implements, from scratch, every cryptographic primitive the
//! DRAMS architecture (Ferdous et al., ICDCS 2017) depends on:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256, the hash used for block identifiers,
//!   transaction ids, Merkle trees and log-entry digests.
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104), used for log authentication tags
//!   and as the MAC half of the authenticated encryption scheme.
//! * [`chacha20`] — the RFC 8439 ChaCha20 stream cipher, used by the
//!   Logging Interface to encrypt log payloads under the federation-wide
//!   symmetric key *K* (paper §II: "the LI also provides symmetric
//!   encryption and decryption functions").
//! * [`aead`] — encrypt-then-MAC authenticated encryption combining
//!   ChaCha20 and HMAC-SHA-256.
//! * [`merkle`] — binary Merkle trees with inclusion proofs, used for block
//!   transaction roots and for the hybrid database anchoring of ref \[9\].
//! * [`bignum`] — 256/512-bit unsigned integer arithmetic (Knuth
//!   Algorithm D division, modular exponentiation), the auditable
//!   reference backend for signatures.
//! * [`montgomery`] — the fast arithmetic core: division-free Montgomery
//!   REDC multiplication, fixed-window exponentiation and precomputed
//!   fixed-base tables, property-tested equivalent to [`bignum`].
//! * [`schnorr`] — Schnorr signatures over the quadratic-residue subgroup
//!   of a fixed 256-bit safe prime, used to sign blockchain transactions.
//!   A message may be signed and verified as parts hashed where they lie,
//!   and [`schnorr::BatchVerifier`] validates a block one transaction at a
//!   time with one fixed-base table per frequent signer.
//! * [`crc32`] — IEEE CRC-32, the checksum under every WAL record, journal
//!   fold, snapshot and wire frame (re-exported as
//!   `drams_store::segment::crc32`).
//! * [`codec`] — a canonical, deterministic binary encoding. Hashing and
//!   signing require byte-for-byte reproducible encodings, which generic
//!   serialisation frameworks do not guarantee; every on-chain datum in
//!   this workspace is encoded through this codec before being hashed.
//!
//! # Example
//!
//! ```
//! use drams_crypto::{sha256::Digest, aead::{SymmetricKey, seal, open}};
//!
//! # fn main() -> Result<(), drams_crypto::CryptoError> {
//! let key = SymmetricKey::from_bytes([7u8; 32]);
//! let sealed = seal(&key, [0u8; 12], b"log-entry-aad", b"access granted");
//! let plain = open(&key, b"log-entry-aad", &sealed)?;
//! assert_eq!(plain, b"access granted");
//! let digest = Digest::of(&plain);
//! assert_eq!(digest, Digest::of(b"access granted"));
//! # Ok(())
//! # }
//! ```

// The two exceptions are the intrinsic kernels `sha256::x86` (SHA
// extensions) and `crc32::x86` (carry-less multiplication).
#![deny(unsafe_code)]

pub mod aead;
pub mod bignum;
pub mod chacha20;
pub mod codec;
pub mod crc32;
pub mod hmac;
pub mod merkle;
pub mod montgomery;
pub mod schnorr;
pub mod sha256;

pub use aead::{open, seal, SealedBox, SymmetricKey};
pub use codec::{Decode, Encode, Reader, Writer};
pub use merkle::{MerkleProof, MerkleTree};
pub use montgomery::{FixedBaseTable, MontCtx};
pub use schnorr::{batch_verify, Keypair, PublicKey, Signature};
pub use sha256::Digest;

use std::fmt;

/// Errors produced by cryptographic operations in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CryptoError {
    /// An authentication tag did not match the ciphertext.
    InvalidTag,
    /// A signature failed verification.
    InvalidSignature,
    /// An encoded value was malformed or truncated.
    Malformed(String),
    /// A scalar or group element was outside its valid range.
    OutOfRange(&'static str),
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::InvalidTag => write!(f, "authentication tag mismatch"),
            CryptoError::InvalidSignature => write!(f, "signature verification failed"),
            CryptoError::Malformed(what) => write!(f, "malformed encoding: {what}"),
            CryptoError::OutOfRange(what) => write!(f, "value out of range: {what}"),
        }
    }
}

impl std::error::Error for CryptoError {}

/// Constant-time byte-slice equality.
///
/// Used when comparing MACs so that the comparison time does not leak the
/// position of the first mismatching byte.
#[must_use]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_matches_on_equal() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn ct_eq_rejects_different_lengths_and_content() {
        assert!(!ct_eq(b"abc", b"abcd"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b""));
    }

    #[test]
    fn error_display_is_lowercase_and_nonempty() {
        for e in [
            CryptoError::InvalidTag,
            CryptoError::InvalidSignature,
            CryptoError::Malformed("x".into()),
            CryptoError::OutOfRange("y"),
        ] {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CryptoError>();
    }
}
