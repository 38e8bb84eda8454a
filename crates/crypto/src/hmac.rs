//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//!
//! Used for log authentication tags (per-probe keys held in the simulated
//! TPM), as the MAC half of [`crate::aead`], and as the deterministic-nonce
//! derivation function for [`crate::schnorr`] signing.
//!
//! There is one implementation: [`HmacKey`], a keyed context. Building it
//! absorbs the key's ipad and opad blocks (two compressions, plus hashing
//! a key longer than one block); every tag after that clones the inner
//! state, streams the message parts into it and closes with one outer
//! compression. Holders of a long-lived key ([`crate::aead::SymmetricKey`],
//! the probes, the Analyser) keep the context, so the pads are hashed once
//! per key and not once per tag. [`hmac_sha256`], [`hmac_sha256_parts`]
//! and [`derive_key`] build a context for one use.

use crate::sha256::{Digest, Sha256};

const BLOCK: usize = 64;

/// An HMAC-SHA-256 key with its ipad and opad blocks already absorbed.
///
/// Not comparable (two contexts are equal exactly when their keys are;
/// compare those with [`crate::ct_eq`]) and redacted in `Debug`: the two
/// hash states are as secret as the key.
///
/// # Example
///
/// ```
/// use drams_crypto::hmac::{hmac_sha256, HmacKey};
///
/// let key = HmacKey::new(b"Jefe");
/// let tag = key.mac_parts(&[b"what do ya want ", b"for nothing?"]);
/// assert_eq!(tag, hmac_sha256(b"Jefe", b"what do ya want for nothing?"));
/// assert_eq!(format!("{key:?}"), "HmacKey(****)");
/// ```
#[derive(Clone)]
pub struct HmacKey {
    /// SHA-256 state after the `key ^ ipad` block.
    inner: Sha256,
    /// SHA-256 state after the `key ^ opad` block.
    outer: Sha256,
}

impl HmacKey {
    /// Keys a context. Keys longer than the 64-byte block size are hashed
    /// first, exactly as RFC 2104 prescribes.
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            key_block[..32].copy_from_slice(Digest::of(key).as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let pad = |byte: u8| {
            let mut hasher = Sha256::new();
            hasher.update(&key_block.map(|k| k ^ byte));
            hasher
        };
        HmacKey {
            inner: pad(0x36),
            outer: pad(0x5c),
        }
    }

    /// Computes `HMAC-SHA256(key, message)`.
    #[must_use]
    pub fn mac(&self, message: &[u8]) -> Digest {
        self.mac_parts(&[message])
    }

    /// Computes the HMAC over the concatenation of `parts`, streaming each
    /// into the hash without joining them first.
    #[must_use]
    pub fn mac_parts(&self, parts: &[&[u8]]) -> Digest {
        let mut inner = self.inner.clone();
        for part in parts {
            inner.update(part);
        }
        let mut outer = self.outer.clone();
        outer.update(inner.finalize().as_bytes());
        outer.finalize()
    }
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key-derived state.
        write!(f, "HmacKey(****)")
    }
}

/// Computes `HMAC-SHA256(key, message)` under a key used once; keep an
/// [`HmacKey`] for a key used again.
///
/// # Example
///
/// ```
/// use drams_crypto::hmac::hmac_sha256;
///
/// let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
/// assert_eq!(
///     tag.to_hex(),
///     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
/// );
/// ```
#[must_use]
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    HmacKey::new(key).mac(message)
}

/// Computes HMAC over the concatenation of several message parts.
#[must_use]
pub fn hmac_sha256_parts(key: &[u8], parts: &[&[u8]]) -> Digest {
    HmacKey::new(key).mac_parts(parts)
}

/// Derives a subkey from a master key and a domain-separation label.
///
/// This is the workspace's lightweight KDF: `HKDF`-like in spirit but a
/// single HMAC invocation, which suffices because inputs are already
/// uniformly random 32-byte keys.
#[must_use]
pub fn derive_key(master: &[u8], label: &str) -> [u8; 32] {
    *hmac_sha256(master, label.as_bytes()).as_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::count_compressions;
    use proptest::prelude::*;

    /// RFC 2104 written out with one-shot hashes over joined buffers: the
    /// reference the keyed, streaming context is checked against.
    fn textbook_hmac(key: &[u8], message: &[u8]) -> Digest {
        let mut block = [0u8; BLOCK];
        if key.len() > BLOCK {
            block[..32].copy_from_slice(Digest::of(key).as_bytes());
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let inner = [&block.map(|k| k ^ 0x36)[..], message].concat();
        let outer = [&block.map(|k| k ^ 0x5c)[..], Digest::of(&inner).as_bytes()].concat();
        Digest::of(&outer)
    }

    /// Compressions to hash `len` bytes, padding included, from a block
    /// boundary.
    fn blocks(len: usize) -> u64 {
        (len as u64 + 9).div_ceil(64)
    }

    /// Checks one RFC 4231 vector through the one-shot wrapper, a keyed
    /// context reused for a second, split tag, and the textbook reference.
    fn check_vector(key: &[u8], data: &[u8], tag: &str) {
        assert_eq!(hmac_sha256(key, data).to_hex(), tag);
        let keyed = HmacKey::new(key);
        assert_eq!(keyed.mac(data).to_hex(), tag);
        let (head, tail) = data.split_at(data.len() / 3);
        assert_eq!(keyed.mac_parts(&[head, &[], tail]).to_hex(), tag);
        assert_eq!(textbook_hmac(key, data).to_hex(), tag);
    }

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case_1() {
        check_vector(
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
    }

    #[test]
    fn rfc4231_case_2() {
        check_vector(
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
    }

    #[test]
    fn rfc4231_case_3() {
        check_vector(
            &[0xaa; 20],
            &[0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        check_vector(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_and_data() {
        check_vector(
            &[0xaa; 131],
            b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.",
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        );
    }

    #[test]
    fn parts_equals_concat() {
        assert_eq!(
            hmac_sha256_parts(b"k", &[b"ab", b"cd"]),
            hmac_sha256(b"k", b"abcd")
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn keyed_parts_match_oneshot_for_any_key_message_and_split(
            key in prop::collection::vec(any::<u8>(), 0..201),
            message in prop::collection::vec(any::<u8>(), 0..400),
            cut_a in any::<usize>(),
            cut_b in any::<usize>(),
        ) {
            let a = cut_a % (message.len() + 1);
            let b = a + cut_b % (message.len() - a + 1);
            let parts = [&message[..a], &message[a..b], &message[b..]];
            let expected = textbook_hmac(&key, &message);
            prop_assert_eq!(HmacKey::new(&key).mac_parts(&parts), expected);
            prop_assert_eq!(hmac_sha256(&key, &message), expected);
            prop_assert_eq!(hmac_sha256_parts(&key, &parts), expected);
        }
    }

    #[test]
    fn warmed_key_hashes_the_message_once_plus_one_outer_block() {
        let (keying, key) = count_compressions(|| HmacKey::new(&[7u8; 32]));
        assert_eq!(keying, 2, "ipad and opad blocks");
        for len in [0usize, 1, 54, 55, 56, 64, 119, 120, 1_700] {
            let message = vec![0x5a; len];
            let (cost, _) = count_compressions(|| key.mac(&message));
            assert_eq!(cost, blocks(len) + 1, "message of {len} bytes");
            let (cost, _) =
                count_compressions(|| key.mac_parts(&[&message[..len / 2], &message[len / 2..]]));
            assert_eq!(cost, blocks(len) + 1, "split message of {len} bytes");
        }
        // A key longer than a block is hashed once, when the context is built.
        let (keying, _) = count_compressions(|| HmacKey::new(&[7u8; 131]));
        assert_eq!(keying, blocks(131) + 2);
    }

    #[test]
    fn debug_does_not_leak_state() {
        assert_eq!(format!("{:?}", HmacKey::new(&[0x11; 32])), "HmacKey(****)");
    }

    #[test]
    fn derive_key_separates_domains() {
        let master = [42u8; 32];
        assert_ne!(derive_key(&master, "enc"), derive_key(&master, "mac"));
        assert_eq!(derive_key(&master, "enc"), derive_key(&master, "enc"));
    }

    #[test]
    fn different_keys_different_tags() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }
}
