//! Authenticated encryption: ChaCha20 + HMAC-SHA-256, encrypt-then-MAC.
//!
//! The Logging Interface seals log payloads with this scheme before
//! submitting them to the blockchain. The associated data (AAD) binds the
//! ciphertext to its log-entry header so a compromised component cannot
//! splice an encrypted payload under a different header.
//!
//! The encryption key and the MAC key are derived from the
//! [`SymmetricKey`] with domain separation. Keys are long-lived (one
//! federation key, one storage root per TPM), so a `SymmetricKey` derives
//! both when it is built and carries them: [`seal`] and [`open`] derive
//! nothing and hash only the message they authenticate.

use crate::chacha20::ChaCha20;
use crate::hmac::{derive_key, HmacKey};
use crate::sha256::Digest;
use crate::{ct_eq, CryptoError};
use serde::{Deserialize, Serialize};

/// A 256-bit symmetric key — the federation-wide key *K* of the paper, or a
/// per-probe key held in the simulated TPM — together with the AEAD
/// context derived from it: the ChaCha20 key and the keyed tag HMAC.
///
/// Equality compares the raw key bytes in constant time; the context is a
/// function of them and takes no part. `Debug` prints neither.
#[derive(Clone, Serialize, Deserialize)]
#[serde(from = "[u8; 32]", into = "[u8; 32]")]
pub struct SymmetricKey {
    bytes: [u8; 32],
    enc_key: [u8; 32],
    tag_key: HmacKey,
}

impl SymmetricKey {
    /// Wraps raw key bytes and derives the AEAD context.
    #[must_use]
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        SymmetricKey {
            bytes,
            enc_key: derive_key(&bytes, "drams.aead.enc"),
            tag_key: HmacKey::new(&derive_key(&bytes, "drams.aead.mac")),
        }
    }

    /// Generates a fresh random key.
    #[must_use]
    pub fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        let mut bytes = [0u8; 32];
        rng.fill(&mut bytes);
        SymmetricKey::from_bytes(bytes)
    }

    /// Derives a named subkey (domain separation).
    #[must_use]
    pub fn derive(&self, label: &str) -> SymmetricKey {
        SymmetricKey::from_bytes(derive_key(&self.bytes, label))
    }

    /// Returns the raw key bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.bytes
    }

    fn tag(&self, nonce: &[u8; 12], aad: &[u8], ciphertext: &[u8]) -> Digest {
        // Unambiguous framing: lengths are included so (aad, ct) boundaries
        // cannot be shifted.
        let aad_len = (aad.len() as u64).to_be_bytes();
        let ct_len = (ciphertext.len() as u64).to_be_bytes();
        self.tag_key
            .mac_parts(&[nonce, &aad_len, aad, &ct_len, ciphertext])
    }
}

impl PartialEq for SymmetricKey {
    fn eq(&self, other: &Self) -> bool {
        ct_eq(&self.bytes, &other.bytes)
    }
}

impl Eq for SymmetricKey {}

impl std::fmt::Debug for SymmetricKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "SymmetricKey(****)")
    }
}

impl From<[u8; 32]> for SymmetricKey {
    fn from(bytes: [u8; 32]) -> Self {
        SymmetricKey::from_bytes(bytes)
    }
}

impl From<SymmetricKey> for [u8; 32] {
    fn from(key: SymmetricKey) -> Self {
        key.bytes
    }
}

/// Ciphertext plus the metadata needed to decrypt and authenticate it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SealedBox {
    /// Per-message nonce. Uniqueness per key is the caller's duty; the
    /// Logging Interface derives it from (probe id, sequence number).
    pub nonce: [u8; 12],
    /// ChaCha20 ciphertext.
    pub ciphertext: Vec<u8>,
    /// HMAC-SHA-256 over nonce, AAD and ciphertext.
    pub tag: Digest,
}

impl SealedBox {
    /// Total wire size in bytes (nonce + ciphertext + tag).
    #[must_use]
    pub fn wire_len(&self) -> usize {
        12 + self.ciphertext.len() + 32
    }
}

/// Encrypts `plaintext` under `key`, binding `aad` into the tag.
///
/// The encryption key and MAC key are derived from `key` with domain
/// separation (once, when the key is built), so the same `SymmetricKey`
/// can be used for many messages as long as nonces are unique.
#[must_use]
pub fn seal(key: &SymmetricKey, nonce: [u8; 12], aad: &[u8], plaintext: &[u8]) -> SealedBox {
    let ciphertext = ChaCha20::new(&key.enc_key, &nonce, 1).process(plaintext);
    let tag = key.tag(&nonce, aad, &ciphertext);
    SealedBox {
        nonce,
        ciphertext,
        tag,
    }
}

/// Verifies and decrypts a [`SealedBox`].
///
/// # Errors
///
/// Returns [`CryptoError::InvalidTag`] if the tag does not verify — i.e. the
/// ciphertext, nonce or AAD was tampered with, or the wrong key was used.
pub fn open(key: &SymmetricKey, aad: &[u8], sealed: &SealedBox) -> Result<Vec<u8>, CryptoError> {
    let mut plaintext = Vec::new();
    open_into(
        key,
        aad,
        &sealed.nonce,
        &sealed.ciphertext,
        &sealed.tag,
        &mut plaintext,
    )?;
    Ok(plaintext)
}

/// [`open`] over a sealed box's parts where they lie, decrypting into
/// `plaintext` — cleared first, its capacity kept — so a caller opening
/// many boxes reuses one buffer.
///
/// # Errors
///
/// As [`open`]; `plaintext` is then left empty.
pub fn open_into(
    key: &SymmetricKey,
    aad: &[u8],
    nonce: &[u8; 12],
    ciphertext: &[u8],
    tag: &Digest,
    plaintext: &mut Vec<u8>,
) -> Result<(), CryptoError> {
    plaintext.clear();
    let expected = key.tag(nonce, aad, ciphertext);
    if !ct_eq(expected.as_bytes(), tag.as_bytes()) {
        return Err(CryptoError::InvalidTag);
    }
    plaintext.extend_from_slice(ciphertext);
    ChaCha20::new(&key.enc_key, nonce, 1).apply_keystream(plaintext);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> SymmetricKey {
        SymmetricKey::from_bytes([0x11; 32])
    }

    #[test]
    fn round_trip() {
        let sealed = seal(&key(), [1; 12], b"hdr", b"payload");
        assert_eq!(open(&key(), b"hdr", &sealed).unwrap(), b"payload");
    }

    #[test]
    fn empty_plaintext_round_trip() {
        let sealed = seal(&key(), [1; 12], b"", b"");
        assert_eq!(open(&key(), b"", &sealed).unwrap(), b"");
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let mut sealed = seal(&key(), [1; 12], b"hdr", b"payload");
        sealed.ciphertext[0] ^= 1;
        assert_eq!(open(&key(), b"hdr", &sealed), Err(CryptoError::InvalidTag));
    }

    #[test]
    fn tampered_nonce_rejected() {
        let mut sealed = seal(&key(), [1; 12], b"hdr", b"payload");
        sealed.nonce[0] ^= 1;
        assert_eq!(open(&key(), b"hdr", &sealed), Err(CryptoError::InvalidTag));
    }

    #[test]
    fn wrong_aad_rejected() {
        let sealed = seal(&key(), [1; 12], b"hdr", b"payload");
        assert_eq!(
            open(&key(), b"other", &sealed),
            Err(CryptoError::InvalidTag)
        );
    }

    #[test]
    fn wrong_key_rejected() {
        let sealed = seal(&key(), [1; 12], b"hdr", b"payload");
        let other = SymmetricKey::from_bytes([0x22; 32]);
        assert_eq!(open(&other, b"hdr", &sealed), Err(CryptoError::InvalidTag));
    }

    #[test]
    fn tampered_tag_rejected() {
        let mut sealed = seal(&key(), [1; 12], b"hdr", b"payload");
        let mut tag = *sealed.tag.as_bytes();
        tag[31] ^= 0x80;
        sealed.tag = Digest::from(tag);
        assert_eq!(open(&key(), b"hdr", &sealed), Err(CryptoError::InvalidTag));
    }

    #[test]
    fn nonce_uniqueness_changes_ciphertext() {
        let a = seal(&key(), [1; 12], b"", b"same message");
        let b = seal(&key(), [2; 12], b"", b"same message");
        assert_ne!(a.ciphertext, b.ciphertext);
    }

    #[test]
    fn debug_does_not_leak_key() {
        let s = format!("{:?}", key());
        assert!(!s.contains("11"));
    }

    #[test]
    fn equality_is_by_key_bytes() {
        assert_eq!(key(), key());
        assert_eq!(key(), SymmetricKey::from([0x11; 32]));
        let mut last_byte_differs = [0x11; 32];
        last_byte_differs[31] ^= 1;
        assert_ne!(key(), SymmetricKey::from_bytes(last_byte_differs));
    }

    #[test]
    fn seal_and_open_derive_nothing_and_hash_the_message_once() {
        use crate::sha256::count_compressions;
        // Keying pays for everything that depends on the key alone: two
        // one-shot derivations (pads, label, outer block) and the tag
        // key's pads.
        let (keying, key) = count_compressions(key);
        assert_eq!(keying, 4 + 4 + 2);
        let (aad, plaintext) = ([3u8; 41], [4u8; 300]);
        // Inner hash over nonce, two lengths, AAD and ciphertext (padding
        // included), then one outer block.
        let tag_cost = (12 + 8 + 41 + 8 + 300 + 9u64).div_ceil(64) + 1;
        let (first, sealed) = count_compressions(|| seal(&key, [1; 12], &aad, &plaintext));
        let (second, _) = count_compressions(|| seal(&key, [2; 12], &aad, &plaintext));
        let (opening, opened) = count_compressions(|| open(&key, &aad, &sealed));
        assert_eq!([first, second, opening], [tag_cost; 3]);
        assert_eq!(opened.unwrap(), plaintext);
    }

    #[test]
    fn open_into_reuses_the_buffer_and_clears_it_on_failure() {
        let sealed = seal(&key(), [1; 12], b"hdr", b"a longer payload");
        let mut buf = Vec::new();
        let (n, c, t) = (&sealed.nonce, &sealed.ciphertext, &sealed.tag);
        open_into(&key(), b"hdr", n, c, t, &mut buf).unwrap();
        assert_eq!(buf, b"a longer payload");
        let short = seal(&key(), [2; 12], b"hdr", b"short");
        let (n, c, t) = (&short.nonce, &short.ciphertext, &short.tag);
        open_into(&key(), b"hdr", n, c, t, &mut buf).unwrap();
        assert_eq!(buf, b"short");
        assert_eq!(
            open_into(&key(), b"other", n, c, t, &mut buf),
            Err(CryptoError::InvalidTag)
        );
        assert!(buf.is_empty());
    }

    #[test]
    fn wire_len_accounts_for_all_fields() {
        let sealed = seal(&key(), [1; 12], b"", b"12345");
        assert_eq!(sealed.wire_len(), 12 + 5 + 32);
    }
}
