//! Schnorr signatures over the quadratic-residue subgroup of a fixed
//! 256-bit safe prime.
//!
//! Every blockchain transaction in the DRAMS reproduction is signed with
//! this scheme, so the monitor-contract's log entries are non-repudiable:
//! a probing agent cannot later deny a log entry it submitted, and a
//! compromised component cannot forge entries for another probe (paper §I:
//! "performing non-repudiable monitoring checks").
//!
//! # Group parameters
//!
//! `p` is a safe prime (`p = 2q + 1`, both prime, generated offline and
//! fixed here), and the group is the order-`q` subgroup of quadratic
//! residues mod `p`, generated by `g = 4 = 2²`. Nonces are derived
//! deterministically from the secret key and message (in the spirit of
//! RFC 6979), so signing is reproducible — valuable in a simulation whose
//! benches must be repeatable.

use crate::bignum::U256;
use crate::codec::{Decode, Encode, Reader, Writer};
use crate::hmac::{hmac_sha256_parts, HmacKey};
use crate::montgomery::{FixedBaseTable, MontCtx};
use crate::sha256::{Digest, Sha256};
use crate::CryptoError;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::OnceLock;

/// The safe prime `p` (256 bits).
pub fn group_p() -> U256 {
    U256::from_limbs([
        0x26761be39f039a2b,
        0x87fda834f152bdac,
        0x7e79630eda13a970,
        0x8232159ce3aaabcb,
    ])
}

/// The subgroup order `q = (p - 1) / 2` (255 bits, prime).
pub fn group_q() -> U256 {
    U256::from_limbs([
        0x133b0df1cf81cd15,
        0x43fed41a78a95ed6,
        0xbf3cb1876d09d4b8,
        0x41190ace71d555e5,
    ])
}

/// The generator `g = 4` of the quadratic-residue subgroup.
fn group_g() -> U256 {
    U256::from_u64(4)
}

const DOMAIN: &[u8] = b"drams.schnorr.v1";

/// Signatures one key needs in a batch before a [`BatchVerifier`] builds
/// it a [`FixedBaseTable`]: the table costs 960 Montgomery products and
/// saves ≈ 270 per signature (a ≈ 60-product walk against the ≈ 330 of
/// the window ladder), so it pays from the fourth signature on.
const TABLE_MIN_SIGS: usize = 4;

/// Precomputed Montgomery contexts for the fixed group: built once per
/// process, then every sign/verify runs division-free arithmetic and
/// exponentiations of `g` become fixed-base table walks.
struct GroupCtx {
    p: MontCtx,
    q: MontCtx,
    g_table: FixedBaseTable,
}

fn group() -> &'static GroupCtx {
    static CTX: OnceLock<GroupCtx> = OnceLock::new();
    CTX.get_or_init(|| {
        let p = MontCtx::new(group_p());
        let q = MontCtx::new(group_q());
        let g_table = FixedBaseTable::new(&p, &group_g());
        GroupCtx { p, q, g_table }
    })
}

/// A secret signing key: a scalar `x ∈ [1, q)`.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecretKey(U256);

/// A public verification key: `y = g^x mod p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PublicKey(U256);

/// A Schnorr signature `(e, s)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Signature {
    e: U256,
    s: U256,
}

/// A secret/public key pair.
#[derive(Clone, Serialize, Deserialize)]
pub struct Keypair {
    secret: SecretKey,
    public: PublicKey,
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SecretKey(****)")
    }
}

impl std::fmt::Debug for Keypair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Keypair")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

impl SecretKey {
    /// Generates a uniformly random secret key.
    pub fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        let q = group_q();
        loop {
            let mut bytes = [0u8; 32];
            rng.fill(&mut bytes);
            let x = U256::from_be_bytes(bytes);
            if !x.is_zero() && x < q {
                return SecretKey(x);
            }
        }
    }

    /// Derives a secret key deterministically from a seed label.
    ///
    /// Useful for reproducible simulations: each probe derives its key from
    /// its identity. Not for production use.
    #[must_use]
    pub fn from_seed(seed: &[u8]) -> Self {
        let q = group_q();
        let mut counter = 0u64;
        loop {
            let h = hmac_sha256_parts(seed, &[b"drams.keygen", &counter.to_be_bytes()]);
            let x = U256::from_be_bytes(*h.as_bytes());
            if !x.is_zero() && x < q {
                return SecretKey(x);
            }
            counter += 1;
        }
    }

    /// Computes the corresponding public key (a fixed-base table walk).
    #[must_use]
    fn public_key(&self) -> PublicKey {
        let g = group();
        PublicKey(g.g_table.pow(&g.p, &self.0))
    }

    /// Signs `message`, deterministically deriving the nonce from the key
    /// and message (simplified RFC 6979).
    ///
    /// Recomputes the public key (one exponentiation); use
    /// [`Keypair::sign`] or `SecretKey::sign_with_public_key` in hot
    /// loops to reuse a cached key.
    #[must_use]
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.sign_with_public_key(&self.public_key(), &[message])
    }

    /// As [`SecretKey::sign`] over the concatenation of `message`'s parts,
    /// with the caller supplying the (cached) public key, skipping its
    /// re-derivation. The parts are hashed where they lie, never joined.
    ///
    /// The signature is byte-for-byte identical to [`SecretKey::sign`]
    /// over the joined parts provided `pk` matches this secret; a
    /// mismatched `pk` yields a signature that will not verify.
    #[must_use]
    fn sign_with_public_key(&self, pk: &PublicKey, message: &[&[u8]]) -> Signature {
        let g = group();
        let q = group_q();
        let nonce_key = HmacKey::new(&self.0.to_be_bytes());
        let mut counter = 0u64;
        loop {
            let counter_bytes = counter.to_be_bytes();
            let prefix: [&[u8]; 2] = [b"drams.nonce", &counter_bytes];
            let k_hash = nonce_key.mac_iter(prefix.iter().chain(message));
            let k = g.q.reduce(&U256::from_be_bytes(*k_hash.as_bytes()));
            if k.is_zero() {
                counter += 1;
                continue;
            }
            let r = g.g_table.pow(&g.p, &k);
            let e = challenge(&r, pk, message);
            if e.is_zero() {
                counter += 1;
                continue;
            }
            // s = k + e*x mod q
            let s = k.add_mod(g.q.mul_mod(&e, &self.0), &q);
            if s.is_zero() {
                counter += 1;
                continue;
            }
            return Signature { e, s };
        }
    }

    /// The pre-Montgomery signing path (Algorithm D `mod_pow`), retained
    /// as the cross-check oracle for the equivalence suites and the
    /// old-vs-new perf trajectory. Byte-for-byte identical output to
    /// [`SecretKey::sign`].
    #[must_use]
    pub fn sign_reference(&self, message: &[u8]) -> Signature {
        let p = group_p();
        let q = group_q();
        let pk = PublicKey(group_g().mod_pow(&self.0, &p));
        let x_bytes = self.0.to_be_bytes();
        let mut counter = 0u64;
        loop {
            let k_hash =
                hmac_sha256_parts(&x_bytes, &[b"drams.nonce", &counter.to_be_bytes(), message]);
            let k = U256::from_be_bytes(*k_hash.as_bytes()).rem(&q);
            if k.is_zero() {
                counter += 1;
                continue;
            }
            let r = group_g().mod_pow(&k, &p);
            let e = challenge(&r, &pk, &[message]);
            if e.is_zero() {
                counter += 1;
                continue;
            }
            let s = k.add_mod(e.mul_mod(self.0, &q), &q);
            if s.is_zero() {
                counter += 1;
                continue;
            }
            return Signature { e, s };
        }
    }
}

impl PublicKey {
    /// Verifies `signature` over `message`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidSignature`] when verification fails.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), CryptoError> {
        self.verify_parts(&[message], signature)
    }

    /// Verifies `signature` over the concatenation of `message`'s parts,
    /// hashing each where it lies: accepts exactly what
    /// [`PublicKey::verify`] accepts over the joined bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidSignature`] when verification fails.
    pub fn verify_parts(
        &self,
        message: &[&[u8]],
        signature: &Signature,
    ) -> Result<(), CryptoError> {
        self.verify_with(None, message, signature)
    }

    /// [`PublicKey::verify_parts`], raising this key through `y_table` (a
    /// fixed-base table of this key's element) when the caller has one.
    fn verify_with(
        &self,
        y_table: Option<&FixedBaseTable>,
        message: &[&[u8]],
        signature: &Signature,
    ) -> Result<(), CryptoError> {
        let g = group();
        let q = group_q();
        if signature.e.is_zero() || signature.e >= q || signature.s.is_zero() || signature.s >= q {
            return Err(CryptoError::InvalidSignature);
        }
        // r' = g^s * y^(q - e) mod p   (y^(q-e) = y^(-e) since ord(y) = q).
        // g^s is a fixed-base table walk; y^(q-e) a second walk when the
        // key has a table, else a fixed-window ladder.
        let gs = g.g_table.pow_mont(&g.p, &signature.s);
        let neg_e = q.wrapping_sub(signature.e);
        let y_neg_e = match y_table {
            Some(table) => table.pow_mont(&g.p, &neg_e),
            None => g.p.pow_mont(&g.p.to_mont(&self.0), &neg_e),
        };
        let r = g.p.from_mont(&g.p.mont_mul(&gs, &y_neg_e));
        let e = challenge(&r, self, message);
        if e == signature.e {
            Ok(())
        } else {
            Err(CryptoError::InvalidSignature)
        }
    }

    /// The pre-Montgomery verification path (Algorithm D `mod_pow`),
    /// retained as the cross-check oracle for the equivalence suites and
    /// the old-vs-new perf trajectory. Accepts exactly the signatures
    /// [`PublicKey::verify`] accepts.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidSignature`] when verification fails.
    pub fn verify_reference(
        &self,
        message: &[u8],
        signature: &Signature,
    ) -> Result<(), CryptoError> {
        let p = group_p();
        let q = group_q();
        if signature.e.is_zero() || signature.e >= q || signature.s.is_zero() || signature.s >= q {
            return Err(CryptoError::InvalidSignature);
        }
        let gs = group_g().mod_pow(&signature.s, &p);
        let neg_e = q.wrapping_sub(signature.e);
        let y_neg_e = self.0.mod_pow(&neg_e, &p);
        let r = gs.mul_mod(y_neg_e, &p);
        let e = challenge(&r, self, &[message]);
        if e == signature.e {
            Ok(())
        } else {
            Err(CryptoError::InvalidSignature)
        }
    }

    /// Checks group membership: `1 < y < p` and `y^q ≡ 1 (mod p)`.
    ///
    /// This is an expensive check (one modular exponentiation), meant for
    /// once per key at registration, not per verification; nothing in the
    /// workspace calls it yet.
    #[must_use]
    pub fn is_valid_group_element(&self) -> bool {
        let g = group();
        if self.0 <= U256::ONE || self.0 >= group_p() {
            return false;
        }
        g.p.pow(&self.0, &group_q()) == U256::ONE
    }

    /// The 32-byte big-endian encoding of the group element.
    #[must_use]
    pub fn to_bytes(self) -> [u8; 32] {
        self.0.to_be_bytes()
    }

    /// Reconstructs from bytes (range-checked; no subgroup check).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::OutOfRange`] if the element is not in `(1, p)`.
    pub fn from_bytes(bytes: [u8; 32]) -> Result<Self, CryptoError> {
        let y = U256::from_be_bytes(bytes);
        if y <= U256::ONE || y >= group_p() {
            return Err(CryptoError::OutOfRange("public key element"));
        }
        Ok(PublicKey(y))
    }

    /// A short, hash-derived identifier for this key (used as an address).
    #[must_use]
    pub fn fingerprint(&self) -> Digest {
        Digest::of_parts(&[b"drams.pk", &self.to_bytes()])
    }
}

impl Keypair {
    /// Generates a fresh random keypair.
    pub fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        let secret = SecretKey::random(rng);
        let public = secret.public_key();
        Keypair { secret, public }
    }

    /// Derives a keypair deterministically from a seed label.
    #[must_use]
    pub fn from_seed(seed: &[u8]) -> Self {
        let secret = SecretKey::from_seed(seed);
        let public = secret.public_key();
        Keypair { secret, public }
    }

    /// The public half.
    #[must_use]
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// The secret half.
    #[must_use]
    pub fn secret(&self) -> &SecretKey {
        &self.secret
    }

    /// Signs with the secret key, reusing the cached public key (saves
    /// one exponentiation per signature over [`SecretKey::sign`]).
    #[must_use]
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.sign_parts(&[message])
    }

    /// Signs the concatenation of `message`'s parts, hashing each where it
    /// lies: the signature is byte-for-byte [`Keypair::sign`]'s over the
    /// joined bytes, and no joined copy is made.
    #[must_use]
    pub fn sign_parts(&self, message: &[&[u8]]) -> Signature {
        self.secret.sign_with_public_key(&self.public, message)
    }
}

/// A batch verification failure: `culprit` is the index (in batch order)
/// of the first signature that fails individual verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchVerifyError {
    /// Index of the first invalid signature within the submitted batch.
    pub culprit: usize,
}

impl std::fmt::Display for BatchVerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "batch signature {} failed verification", self.culprit)
    }
}

impl std::error::Error for BatchVerifyError {}

/// Verifies the signatures of one batch one at a time, each over
/// message parts hashed where they lie, sharing a key's work across the
/// batch.
///
/// Each verification is exactly [`PublicKey::verify_parts`]: its
/// commitment `R = g^s·y^{-e}` is rebuilt and its hash challenge
/// compared. The hash binding of `(e, s)`-form Schnorr pins each `R`
/// individually, so nothing can be aggregated across signatures; what a
/// batch amortises is the *key*. Logging Interfaces sign many
/// transactions with one key, so every key with at least four
/// signatures in the batch gets its own [`FixedBaseTable`] (32 KiB,
/// built at its first verification and kept until the verifier drops)
/// and its `y^{-e}` becomes a table walk like `g^s`; rarer keys keep the
/// window ladder. A block audit builds one verifier from the block's
/// senders and hands it one transaction's signing head and payload at a
/// time, so it never holds a copy of the block's signed bytes.
#[derive(Debug)]
pub struct BatchVerifier {
    /// Each signer's signatures in the batch, and its table once built.
    keys: HashMap<PublicKey, (usize, Option<FixedBaseTable>)>,
}

impl BatchVerifier {
    /// A verifier for a batch signed by `signers`, one item per
    /// signature: it counts each key's signatures before verifying any.
    pub fn new(signers: impl IntoIterator<Item = PublicKey>) -> Self {
        let mut keys: HashMap<PublicKey, (usize, Option<FixedBaseTable>)> = HashMap::new();
        for pk in signers {
            keys.entry(pk).or_default().0 += 1;
        }
        BatchVerifier { keys }
    }

    /// Verifies one signature of the batch over the concatenation of
    /// `message`'s parts. Accepts exactly what [`PublicKey::verify`]
    /// accepts over the joined bytes, with or without a table behind it.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidSignature`] when verification fails.
    pub fn verify_parts(
        &mut self,
        pk: &PublicKey,
        message: &[&[u8]],
        signature: &Signature,
    ) -> Result<(), CryptoError> {
        let table = match self.keys.get_mut(pk) {
            Some((count, table)) if *count >= TABLE_MIN_SIGS => {
                Some(&*table.get_or_insert_with(|| FixedBaseTable::new(&group().p, &pk.0)))
            }
            _ => None,
        };
        pk.verify_with(table, message, signature)
    }
}

/// Verifies a batch of signatures over whole messages, naming the first
/// that fails: a [`BatchVerifier`] over the batch's keys, one linear pass
/// in batch order. Succeeds exactly when every individual
/// [`PublicKey::verify`] would succeed. Block validation hands its
/// transactions to a [`BatchVerifier`] as parts instead; this form takes
/// each message as one slice.
///
/// # Errors
///
/// [`BatchVerifyError`] naming the first failing index.
pub fn batch_verify(items: &[(PublicKey, &[u8], Signature)]) -> Result<(), BatchVerifyError> {
    let mut verifier = BatchVerifier::new(items.iter().map(|(pk, _, _)| *pk));
    match items
        .iter()
        .position(|(pk, m, sig)| verifier.verify_parts(pk, &[m], sig).is_err())
    {
        Some(culprit) => Err(BatchVerifyError { culprit }),
        None => Ok(()),
    }
}

impl Signature {
    /// The `(e, s)` scalars as big-endian bytes.
    #[must_use]
    pub fn to_bytes(self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.e.to_be_bytes());
        out[32..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Reconstructs from 64 bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::OutOfRange`] if either scalar is outside
    /// `[1, q)`.
    pub fn from_bytes(bytes: [u8; 64]) -> Result<Self, CryptoError> {
        let mut e_bytes = [0u8; 32];
        let mut s_bytes = [0u8; 32];
        e_bytes.copy_from_slice(&bytes[..32]);
        s_bytes.copy_from_slice(&bytes[32..]);
        let e = U256::from_be_bytes(e_bytes);
        let s = U256::from_be_bytes(s_bytes);
        let q = group_q();
        if e.is_zero() || e >= q || s.is_zero() || s >= q {
            return Err(CryptoError::OutOfRange("signature scalar"));
        }
        Ok(Signature { e, s })
    }
}

/// The challenge hash over `message`'s parts in order, each hashed where
/// it lies: the same digest as over their concatenation.
fn challenge(r: &U256, pk: &PublicKey, message: &[&[u8]]) -> U256 {
    let mut h = Sha256::new();
    h.update(DOMAIN);
    h.update(&r.to_be_bytes());
    h.update(&pk.to_bytes());
    for part in message {
        h.update(part);
    }
    let digest = h.finalize();
    group().q.reduce(&U256::from_be_bytes(*digest.as_bytes()))
}

impl Encode for PublicKey {
    fn encode(&self, w: &mut Writer) {
        w.put_raw(&self.to_bytes());
    }
}

impl Decode for PublicKey {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        PublicKey::from_bytes(r.get_array::<32>()?)
    }
}

impl Encode for Signature {
    fn encode(&self, w: &mut Writer) {
        w.put_raw(&self.to_bytes());
    }
}

impl Decode for Signature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        Signature::from_bytes(r.get_array::<64>()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montgomery::count_products;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn keypair() -> Keypair {
        Keypair::from_seed(b"test-probe-1")
    }

    #[test]
    fn group_parameters_are_consistent() {
        // p = 2q + 1
        let (twice_q, carry) = group_q().overflowing_add(group_q());
        assert!(!carry);
        let (p_check, carry) = twice_q.overflowing_add(U256::ONE);
        assert!(!carry);
        assert_eq!(p_check, group_p());
        // g has order q
        assert_eq!(group_g().mod_pow(&group_q(), &group_p()), U256::ONE);
    }

    #[test]
    fn sign_verify_round_trip() {
        let kp = keypair();
        let sig = kp.sign(b"access log entry");
        kp.public().verify(b"access log entry", &sig).unwrap();
    }

    #[test]
    fn signing_is_deterministic() {
        let kp = keypair();
        assert_eq!(kp.sign(b"m").to_bytes(), kp.sign(b"m").to_bytes());
    }

    #[test]
    fn wrong_message_rejected() {
        let kp = keypair();
        let sig = kp.sign(b"message A");
        assert_eq!(
            kp.public().verify(b"message B", &sig),
            Err(CryptoError::InvalidSignature)
        );
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = keypair();
        let kp2 = Keypair::from_seed(b"test-probe-2");
        let sig = kp1.sign(b"m");
        assert!(kp2.public().verify(b"m", &sig).is_err());
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = keypair();
        let sig = kp.sign(b"m");
        let mut bytes = sig.to_bytes();
        bytes[40] ^= 0x01;
        // Out-of-range is also a rejection.
        if let Ok(tampered) = Signature::from_bytes(bytes) {
            assert!(kp.public().verify(b"m", &tampered).is_err());
        }
    }

    #[test]
    fn random_keys_sign_and_verify() {
        let mut rng = StdRng::seed_from_u64(42);
        for i in 0..4 {
            let kp = Keypair::random(&mut rng);
            let msg = format!("msg {i}");
            let sig = kp.sign(msg.as_bytes());
            kp.public().verify(msg.as_bytes(), &sig).unwrap();
        }
    }

    /// The order-2 element `p − 1`: in range, outside the order-`q`
    /// subgroup, owned by no secret key.
    fn rogue_key() -> PublicKey {
        PublicKey(group_p().wrapping_sub(U256::ONE))
    }

    /// A signature [`PublicKey::verify`] accepts under [`rogue_key`]:
    /// `y^(q−e)` is `+1` for odd `e` and `−1` for even `e` (`q` is odd), so
    /// try `s` values until the challenge's parity agrees with the sign.
    fn rogue_sign(message: &[u8]) -> Signature {
        let g = group();
        let pk = rogue_key();
        for s in (1u64..).map(U256::from_u64) {
            let gs = g.g_table.pow(&g.p, &s);
            for (r, odd) in [(gs, true), (group_p().wrapping_sub(gs), false)] {
                let e = challenge(&r, &pk, &[message]);
                if !e.is_zero() && e.is_even() != odd {
                    return Signature { e, s };
                }
            }
        }
        unreachable!("half of all challenges have the right parity")
    }

    #[test]
    fn out_of_subgroup_key_verifies_the_same_through_its_table() {
        let msgs: Vec<Vec<u8>> = (0..6).map(|i| format!("rogue {i}").into_bytes()).collect();
        let mut items: Vec<(PublicKey, &[u8], Signature)> = msgs
            .iter()
            .map(|m| (rogue_key(), m.as_slice(), rogue_sign(m)))
            .collect();
        for (pk, m, sig) in &items {
            pk.verify(m, sig).unwrap();
            pk.verify_reference(m, sig).unwrap();
        }
        assert_eq!(batch_verify(&items), Ok(()));
        items[4].1 = b"rogue 4, rewritten";
        assert_eq!(batch_verify(&items), Err(BatchVerifyError { culprit: 4 }));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `batch_verify` is individual verification: same accept set, and
        /// the culprit is the first item [`PublicKey::verify`] refuses —
        /// for keys on both sides of [`TABLE_MIN_SIGS`], with and without
        /// an out-of-subgroup signer, under up to three edits.
        #[test]
        fn batch_verify_names_the_first_individual_failure(
            n in 1usize..=96,
            keys in 1usize..=8,
            rogue in any::<bool>(),
            layout in any::<u64>(),
            edits in prop::collection::vec((any::<u64>(), 0u8..6, any::<u64>()), 0..4),
        ) {
            let kps: Vec<Keypair> = (0..keys)
                .map(|k| Keypair::from_seed(format!("prop-key-{k}").as_bytes()))
                .collect();
            let pool: Vec<PublicKey> = (0..keys)
                .map(|k| if rogue && k == 0 { rogue_key() } else { kps[k].public() })
                .collect();
            // Low key indices sign most items, high ones only a few.
            let mut rng = StdRng::seed_from_u64(layout);
            let mut items: Vec<(PublicKey, Vec<u8>, Signature)> = (0..n)
                .map(|i| {
                    let k = rng.gen_range(0..keys).min(rng.gen_range(0..keys));
                    let msg = format!("item {i} of {layout}").into_bytes();
                    let sig = if rogue && k == 0 { rogue_sign(&msg) } else { kps[k].sign(&msg) };
                    (pool[k], msg, sig)
                })
                .collect();
            for (at, kind, detail) in edits {
                let i = (at % n as u64) as usize;
                let (limb, bit) = ((detail / 64 % 4) as usize, detail % 64);
                match kind {
                    0 => items[i] = items[(detail % n as u64) as usize].clone(),
                    1 => items[i].0 = pool[(detail % keys as u64) as usize],
                    2 => items[i].2.e.0[limb] ^= 1 << bit,
                    3 => items[i].2.s.0[limb] ^= 1 << bit,
                    4 => {
                        let len = items[i].1.len() as u64;
                        items[i].1[(detail / 8 % len) as usize] ^= 1 << (detail % 8);
                    }
                    _ => {
                        let out_of_range = [U256::ZERO, group_q(), U256([u64::MAX; 4])];
                        let scalar = out_of_range[(detail % 3) as usize];
                        if detail & 4 == 0 { items[i].2.e = scalar } else { items[i].2.s = scalar }
                    }
                }
            }
            let batch: Vec<(PublicKey, &[u8], Signature)> =
                items.iter().map(|(pk, m, sig)| (*pk, m.as_slice(), *sig)).collect();
            let first_failure = batch.iter().position(|(pk, m, sig)| pk.verify(m, sig).is_err());
            prop_assert_eq!(batch_verify(&batch).err().map(|e| e.culprit), first_failure);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A message signed or verified as parts is the joined message: cut
        /// anywhere into a head and up to three payload pieces,
        /// [`Keypair::sign_parts`] gives exactly [`Keypair::sign`]'s and
        /// [`SecretKey::sign_reference`]'s signature over the joined
        /// bytes, and [`PublicKey::verify_parts`] (alone or through a
        /// tabled [`BatchVerifier`]) accepts and rejects exactly what
        /// [`PublicKey::verify`] does, with a bit flipped in the head, in
        /// the payload or nowhere.
        #[test]
        fn signing_and_verifying_parts_is_signing_and_verifying_the_joined_bytes(
            message in prop::collection::vec(any::<u8>(), 1..400),
            head_cut in any::<usize>(),
            payload_cuts in prop::collection::vec(any::<usize>(), 0..3),
            flip in prop::option::of((any::<bool>(), any::<usize>(), 0u8..8)),
        ) {
            let kp = keypair();
            let split = |bytes: &[u8]| -> Vec<Vec<u8>> {
                let head = head_cut % (bytes.len() + 1);
                let mut cuts: Vec<usize> = payload_cuts
                    .iter()
                    .map(|c| head + c % (bytes.len() - head + 1))
                    .collect();
                cuts.sort_unstable();
                let mut parts = vec![bytes[..head].to_vec()];
                let mut at = head;
                for cut in cuts.into_iter().chain([bytes.len()]) {
                    parts.push(bytes[at..cut].to_vec());
                    at = cut;
                }
                parts
            };
            let owned = split(&message);
            let parts: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
            let sig = kp.sign(&message);
            prop_assert_eq!(kp.sign_parts(&parts), sig);
            prop_assert_eq!(kp.secret().sign_reference(&message), sig);

            let mut tampered = message.clone();
            if let Some((in_head, at, bit)) = flip {
                let head = owned[0].len();
                let at = match (in_head && head > 0, message.len() > head) {
                    (true, _) | (false, false) => at % head.max(1),
                    (false, true) => head + at % (message.len() - head),
                };
                tampered[at] ^= 1 << bit;
            }
            let owned = split(&tampered);
            let parts: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
            let joined = kp.public().verify(&tampered, &sig);
            prop_assert_eq!(joined.is_ok(), flip.is_none());
            prop_assert_eq!(kp.public().verify_parts(&parts, &sig), joined);
            let mut tabled = BatchVerifier::new([kp.public(); TABLE_MIN_SIGS]);
            prop_assert_eq!(tabled.verify_parts(&kp.public(), &parts, &sig), joined);
        }
    }

    /// A host-independent gate on the mechanism, in Montgomery products:
    /// a tabled key costs its 960-product table once, then two table
    /// walks per signature; three signatures never pay for a table, four
    /// already win; signing is untouched (this key and message took 65
    /// products before the table path existed).
    #[test]
    fn batch_verify_walks_tables_within_its_product_budget() {
        let kps = [
            Keypair::from_seed(b"budget-a"),
            Keypair::from_seed(b"budget-b"),
        ];
        let msgs: Vec<Vec<u8>> = (0..64).map(|i| format!("tx {i}").into_bytes()).collect();
        let items: Vec<(PublicKey, &[u8], Signature)> = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| (kps[i % 2].public(), m.as_slice(), kps[i % 2].sign(m)))
            .collect();
        let individually = |items: &[(PublicKey, &[u8], Signature)]| {
            count_products(|| items.iter().all(|(pk, m, sig)| pk.verify(m, sig).is_ok())).0
        };
        let (batch, verdict) = count_products(|| batch_verify(&items));
        assert_eq!(verdict, Ok(()));
        assert!(batch <= 130 * 64 + 960 * 2, "{batch} products");
        assert!(batch * 2 < individually(&items));

        let one_key: Vec<_> = items.iter().step_by(2).copied().collect();
        let (three, _) = count_products(|| batch_verify(&one_key[..3]));
        assert_eq!(three, individually(&one_key[..3]));
        let (four, _) = count_products(|| batch_verify(&one_key[..4]));
        assert!(four < individually(&one_key[..4]));

        let signer = keypair();
        let (sign, _) = count_products(|| signer.sign(b"access log entry"));
        assert_eq!(sign, 65);
    }

    #[test]
    fn public_keys_are_valid_group_elements() {
        assert!(keypair().public().is_valid_group_element());
        assert!(!rogue_key().is_valid_group_element());
    }

    #[test]
    fn key_bytes_round_trip() {
        let kp = keypair();
        let pk = PublicKey::from_bytes(kp.public().to_bytes()).unwrap();
        assert_eq!(pk, kp.public());
    }

    #[test]
    fn out_of_range_keys_rejected() {
        assert!(PublicKey::from_bytes([0u8; 32]).is_err());
        assert!(PublicKey::from_bytes(group_p().to_be_bytes()).is_err());
    }

    #[test]
    fn codec_round_trip() {
        use crate::codec::{Decode, Encode, Reader, Writer};
        let kp = keypair();
        let sig = kp.sign(b"x");
        let mut w = Writer::new();
        kp.public().encode(&mut w);
        sig.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(PublicKey::decode(&mut r).unwrap(), kp.public());
        assert_eq!(Signature::decode(&mut r).unwrap(), sig);
        r.finish().unwrap();
    }

    #[test]
    fn fingerprints_differ_per_key() {
        let a = Keypair::from_seed(b"a").public().fingerprint();
        let b = Keypair::from_seed(b"b").public().fingerprint();
        assert_ne!(a, b);
    }

    #[test]
    fn secret_key_debug_does_not_leak() {
        let kp = keypair();
        let dbg = format!("{:?}", kp.secret());
        assert!(!dbg.contains(
            &kp.secret()
                .0
                .to_be_bytes()
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect::<String>()
        ));
        assert!(dbg.contains("****"));
    }
}
