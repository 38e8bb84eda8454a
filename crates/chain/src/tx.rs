//! Signed smart-contract transactions.
//!
//! Every DRAMS log entry reaches the blockchain as a transaction invoking
//! the monitor contract. Transactions are Schnorr-signed by the submitting
//! Logging Interface, making log submissions non-repudiable (paper §I).
//!
//! A [`Transaction`] is immutable once built. Its id is the SHA-256 of its
//! canonical encoding (~1.7 KB for a log batch) and is asked for at every
//! stage of a transaction's life — mempool admission and removal, the
//! block's Merkle root when mining and again when validating an import,
//! contract execution and every event it emits — so the transaction
//! computes it on first use and keeps it. Immutability is what makes the
//! kept id safe: the fields are read through `Deref` to a [`TxBody`],
//! there is no `DerefMut`, and changing one means taking the body out
//! with [`Transaction::into_body`] and building a new transaction, with
//! an empty id cache, through [`Transaction::from_body`].
//!
//! The payload is a shared immutable buffer (`Arc<[u8]>`): cloning a
//! transaction — into the pool, a block, a peer's chain — copies no
//! payload byte, and contract storage keeps a span of the very buffer the
//! transaction carried instead of a copy of it (see
//! [`crate::contract`]).
//!
//! The signature covers two parts: a short signing head (a domain tag,
//! the sender, nonce, contract and method, and the payload's length
//! varint) and then the payload. Signing and every verification hash the
//! head from a small buffer and the payload where it lies, so no path
//! joins them into a copy of the payload.

use crate::error::ChainError;
use drams_crypto::codec::{Decode, Encode, Reader, Writer, MAX_VARINT_LEN};
use drams_crypto::schnorr::{Keypair, PublicKey, Signature};
use drams_crypto::sha256::Digest;
use serde::{Deserialize, Serialize};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// A transaction identifier (SHA-256 of the canonical encoding).
pub type TxId = Digest;

/// The content of a [`Transaction`]: what is encoded, hashed and signed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TxBody {
    /// The submitting account's public key.
    pub sender: PublicKey,
    /// Per-sender sequence number, starting at 0.
    pub nonce: u64,
    /// Name of the target contract.
    pub contract: String,
    /// Method to invoke.
    pub method: String,
    /// Canonical-encoded method arguments, shared by every clone of the
    /// transaction and by the contract storage that keeps spans of it.
    pub payload: Arc<[u8]>,
    /// Schnorr signature over the signing bytes.
    pub signature: Signature,
}

/// A signed contract invocation: an immutable [`TxBody`] and its id,
/// computed once.
///
/// Fields read as `tx.sender`, `tx.payload`, … through `Deref`:
///
/// ```
/// use drams_chain::tx::Transaction;
/// use drams_crypto::schnorr::Keypair;
///
/// let kp = Keypair::from_seed(b"doc");
/// let tx = Transaction::new_signed(&kp, 0, "monitor", "store_log", b"entry".to_vec());
/// assert_eq!(&tx.payload[..], b"entry");
///
/// // Editing goes through the body and yields a transaction with a new id
/// // (and, here, a signature that no longer covers the payload).
/// let mut body = tx.clone().into_body();
/// body.payload = b"forged".as_slice().into();
/// let forged = Transaction::from_body(body);
/// assert_ne!(forged.id(), tx.id());
/// assert!(forged.verify_signature().is_err());
/// ```
///
/// They cannot be assigned in place — a built transaction never changes
/// under its cached id:
///
/// ```compile_fail
/// use drams_chain::tx::Transaction;
/// use drams_crypto::schnorr::Keypair;
///
/// let kp = Keypair::from_seed(b"doc");
/// let mut tx = Transaction::new_signed(&kp, 0, "monitor", "store_log", b"entry".to_vec());
/// tx.payload = b"forged".as_slice().into();
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct Transaction {
    body: TxBody,
    /// Filled by the first [`Transaction::id`]; carried by `Clone`.
    #[serde(skip)]
    id: OnceLock<TxId>,
}

impl Transaction {
    /// Builds and signs a transaction. A `Vec<u8>` payload is copied into
    /// a shared buffer once; an `Arc<[u8]>` is shared as it is.
    #[must_use]
    pub fn new_signed(
        keypair: &Keypair,
        nonce: u64,
        contract: impl Into<String>,
        method: impl Into<String>,
        payload: impl Into<Arc<[u8]>>,
    ) -> Transaction {
        let contract = contract.into();
        let method = method.into();
        let payload = payload.into();
        let mut head = Writer::with_capacity(head_capacity(&contract, &method));
        signing_head(
            &mut head,
            &keypair.public(),
            nonce,
            &contract,
            &method,
            payload.len(),
        );
        let signature = keypair.sign_parts(&[head.as_bytes(), &payload]);
        Transaction::from_body(TxBody {
            sender: keypair.public(),
            nonce,
            contract,
            method,
            payload,
            signature,
        })
    }

    /// Wraps a body as it stands: nothing is signed or checked, and the id
    /// is not yet computed.
    #[must_use]
    pub fn from_body(body: TxBody) -> Transaction {
        Transaction {
            body,
            id: OnceLock::new(),
        }
    }

    /// Gives the body back for editing, dropping the cached id.
    #[must_use]
    pub fn into_body(self) -> TxBody {
        self.body
    }

    /// The transaction id: SHA-256 of the canonical encoding, computed on
    /// the first call. The encoding is hashed as three parts where they
    /// lie, never joined: the signing head after its domain tag (the
    /// sender, nonce, contract, method and the payload's length varint,
    /// as the encoding writes them), the shared payload, and the 64
    /// signature bytes. Only the head is built, in a buffer of its own.
    #[must_use]
    pub fn id(&self) -> TxId {
        *self.id.get_or_init(|| {
            let mut head = Writer::with_capacity(head_capacity(&self.contract, &self.method));
            self.write_signing_head(&mut head);
            let encoded_head = &head.as_bytes()[DOMAIN.len()..];
            Digest::of_parts(&[encoded_head, &self.payload, &self.signature.to_bytes()])
        })
    }

    /// Verifies the sender's signature.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::BadSignature`] when verification fails.
    pub fn verify_signature(&self) -> Result<(), ChainError> {
        let mut head = Writer::with_capacity(head_capacity(&self.contract, &self.method));
        self.write_signing_head(&mut head);
        self.sender
            .verify_parts(&[head.as_bytes(), &self.payload], &self.signature)
            .map_err(ChainError::from)
    }

    /// The exact bytes this transaction's Schnorr signature covers, its
    /// signing head and payload joined into one new buffer.
    ///
    /// No signing or validation path calls it: they hash the head and
    /// the shared payload where each lies (block validation through
    /// [`drams_crypto::schnorr::BatchVerifier`]). It is kept for callers
    /// that want the signed bytes as one slice, such as a benchmark
    /// timing [`drams_crypto::schnorr::batch_verify`].
    #[must_use]
    pub fn signing_bytes(&self) -> Vec<u8> {
        let capacity = head_capacity(&self.contract, &self.method) + self.payload.len();
        let mut bytes = Writer::with_capacity(capacity);
        self.write_signing_head(&mut bytes);
        bytes.put_raw(&self.payload);
        bytes.into_bytes()
    }

    /// Replaces what `head` holds with this transaction's signing head:
    /// the bytes its signature covers ahead of the payload.
    pub(crate) fn write_signing_head(&self, head: &mut Writer) {
        head.clear();
        signing_head(
            head,
            &self.sender,
            self.nonce,
            &self.contract,
            &self.method,
            self.payload.len(),
        );
    }

    /// Approximate wire size in bytes (used by the log-size experiments).
    #[must_use]
    pub fn wire_len(&self) -> usize {
        self.to_canonical_bytes().len()
    }

    /// The sender's address (public-key fingerprint).
    #[must_use]
    pub fn sender_address(&self) -> Digest {
        self.sender.fingerprint()
    }
}

impl Deref for Transaction {
    type Target = TxBody;

    fn deref(&self) -> &TxBody {
        &self.body
    }
}

/// Equality is equality of bodies; whether the id has been computed yet
/// is not part of a transaction's value.
impl PartialEq for Transaction {
    fn eq(&self, other: &Self) -> bool {
        self.body == other.body
    }
}

impl std::fmt::Debug for Transaction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.body.fmt(f)
    }
}

/// The signing-head domain tag.
const DOMAIN: &[u8] = b"drams.tx.v1";

/// The most bytes a signing head for `contract` and `method` can take:
/// the domain tag, the sender, the nonce, the two names and three
/// varints.
fn head_capacity(contract: &str, method: &str) -> usize {
    DOMAIN.len() + 32 + 8 + contract.len() + method.len() + 3 * MAX_VARINT_LEN
}

/// Appends the signing head: everything the signature covers before the
/// payload, ending with the payload's length varint (what
/// [`Writer::put_bytes`] writes ahead of the payload's bytes).
fn signing_head(
    w: &mut Writer,
    sender: &PublicKey,
    nonce: u64,
    contract: &str,
    method: &str,
    payload_len: usize,
) {
    w.put_raw(DOMAIN);
    sender.encode(w);
    w.put_u64(nonce);
    w.put_str(contract);
    w.put_str(method);
    w.put_varint(payload_len as u64);
}

impl Encode for Transaction {
    fn encode(&self, w: &mut Writer) {
        self.sender.encode(w);
        w.put_u64(self.nonce);
        w.put_str(&self.contract);
        w.put_str(&self.method);
        w.put_bytes(&self.payload);
        self.signature.encode(w);
    }
}

impl Decode for Transaction {
    fn decode(r: &mut Reader<'_>) -> Result<Self, drams_crypto::CryptoError> {
        Ok(Transaction::from_body(TxBody {
            sender: PublicKey::decode(r)?,
            nonce: r.get_u64()?,
            contract: r.get_str()?,
            method: r.get_str()?,
            payload: Arc::from(r.get_bytes_ref()?),
            signature: Signature::decode(r)?,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keypair() -> Keypair {
        Keypair::from_seed(b"tx-tests")
    }

    fn tx() -> Transaction {
        Transaction::new_signed(&keypair(), 0, "monitor", "store_log", b"payload".to_vec())
    }

    #[test]
    fn signature_verifies() {
        tx().verify_signature().unwrap();
    }

    /// Rebuilds `tx` with its body edited — the only way to change one.
    fn tampered(tx: Transaction, edit: impl FnOnce(&mut TxBody)) -> Transaction {
        let mut body = tx.into_body();
        edit(&mut body);
        Transaction::from_body(body)
    }

    #[test]
    fn tampered_payload_rejected() {
        let t = tampered(tx(), |b| b.payload = b"tampered".as_slice().into());
        assert_eq!(t.verify_signature(), Err(ChainError::BadSignature));
    }

    #[test]
    fn tampered_nonce_rejected() {
        let t = tampered(tx(), |b| b.nonce = 99);
        assert!(t.verify_signature().is_err());
    }

    #[test]
    fn tampered_method_rejected() {
        let t = tampered(tx(), |b| b.method = "delete_log".into());
        assert!(t.verify_signature().is_err());
    }

    #[test]
    fn substituted_sender_rejected() {
        let t = tampered(tx(), |b| {
            b.sender = Keypair::from_seed(b"attacker").public();
        });
        assert!(t.verify_signature().is_err());
    }

    #[test]
    fn id_is_the_digest_of_the_canonical_bytes_however_the_tx_was_made() {
        let built = tx();
        let bytes = built.to_canonical_bytes();
        let expected = Digest::of(&bytes);
        // Decoded, never asked before.
        let decoded = Transaction::from_canonical_bytes(&bytes).unwrap();
        assert_eq!(decoded.id(), expected);
        // Cloned before and after the original's id was computed.
        let early_clone = built.clone();
        assert_eq!(built.id(), expected);
        assert_eq!(built.id(), expected, "second call reads the cache");
        assert_eq!(built.clone().id(), expected);
        assert_eq!(early_clone.id(), expected);
        // Round-tripped through the body unchanged.
        assert_eq!(Transaction::from_body(built.into_body()).id(), expected);
    }

    #[test]
    fn edited_body_gets_a_new_id_and_a_broken_signature() {
        let original = tx();
        let stale = original.id();
        let edited = tampered(original, |b| b.payload = b"edited".as_slice().into());
        assert_ne!(edited.id(), stale);
        assert_eq!(edited.id(), Digest::of(&edited.to_canonical_bytes()));
        assert_eq!(edited.verify_signature(), Err(ChainError::BadSignature));
    }

    #[test]
    fn equality_and_debug_ignore_the_id_cache() {
        let (cold, warm) = (tx(), tx());
        let _ = warm.id();
        assert_eq!(cold, warm);
        assert_eq!(format!("{cold:?}"), format!("{warm:?}"));
        assert_ne!(cold, tampered(tx(), |b| b.nonce = 1));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The id hashed in parts is the digest of the joined canonical
        /// encoding, whatever the names, nonce and payload length (which
        /// moves the length varint across its one-, two- and three-byte
        /// forms).
        #[test]
        fn id_in_parts_is_the_canonical_digest(
            nonce in proptest::prelude::any::<u64>(),
            names in (0usize..40, 0usize..300),
            payload_len in 0usize..20_000,
            seed in proptest::prelude::any::<u8>(),
        ) {
            let (contract, method) = ("c".repeat(names.0), "m".repeat(names.1));
            let payload: Vec<u8> = (0..payload_len).map(|i| (i as u8) ^ seed).collect();
            let t = Transaction::new_signed(&keypair(), nonce, contract, method, payload);
            proptest::prop_assert_eq!(t.id(), t.canonical_digest());
            proptest::prop_assert_eq!(t.id(), Digest::of(&t.to_canonical_bytes()));
        }
    }

    #[test]
    fn id_changes_with_content() {
        let a = tx();
        let b = Transaction::new_signed(&keypair(), 1, "monitor", "store_log", b"payload".to_vec());
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn codec_round_trip() {
        let t = tx();
        let bytes = t.to_canonical_bytes();
        let back = Transaction::from_canonical_bytes(&bytes).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.id(), t.id());
        back.verify_signature().unwrap();
    }

    #[test]
    fn wire_len_scales_with_payload() {
        let small = Transaction::new_signed(&keypair(), 0, "m", "s", vec![0; 16]);
        let large = Transaction::new_signed(&keypair(), 0, "m", "s", vec![0; 4096]);
        assert!(large.wire_len() > small.wire_len() + 4000);
    }
}
