//! FIPS 180-4 SHA-256.
//!
//! This is the single hash function used throughout the workspace: block
//! hashes, transaction ids, Merkle nodes, log-entry digests and the
//! proof-of-work puzzle all reduce to SHA-256 over canonical encodings.
//!
//! # Kernels
//!
//! The compression function exists twice, and only twice. `compress` is
//! the portable FIPS 180-4 loop: it runs on every CPU without the x86-64
//! SHA extensions and it is the oracle the other kernel is tested
//! against. `x86::compress_blocks` does the same rounds with the
//! `sha256rnds2` / `sha256msg1` / `sha256msg2` instructions and keeps
//! the state in registers across consecutive blocks. `compress_blocks`
//! picks between them from what the CPU reports
//! (`is_x86_feature_detected!`, cached by std) — nothing a user can set
//! selects a kernel. `Sha256::update`, `finalize` and `digest` hand it
//! each contiguous run of whole blocks once.
//!
//! The `x86` module is one of the workspace's two islands of `unsafe`
//! code, the other being `crc32::x86`: the crate is
//! `#![deny(unsafe_code)]` with one `#[allow]` on each, and every other
//! crate is `#![forbid(unsafe_code)]`.

use serde::{Deserialize, Serialize};
use std::fmt;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use drams_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bytes: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    #[must_use]
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            length_bytes: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    ///
    /// Aligned 64-byte blocks are compressed directly from the input
    /// slice, as one run; the internal buffer only stages partial blocks.
    pub fn update(&mut self, data: &[u8]) {
        self.length_bytes = self.length_bytes.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == 64 {
                compress_blocks(&mut self.state, &self.buffer);
                self.buffered = 0;
            }
        }
        let (whole, rest) = input.split_at(input.len() - input.len() % 64);
        compress_blocks(&mut self.state, whole);
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffered = rest.len();
        }
    }

    /// Consumes the hasher and returns the digest.
    #[must_use]
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.length_bytes.wrapping_mul(8);
        let (tail, len) = padded_tail(&self.buffer[..self.buffered], bit_len);
        compress_blocks(&mut self.state, &tail[..len]);
        digest_of_state(&self.state)
    }

    /// One-shot digest: compresses aligned 64-byte blocks directly from
    /// `data` without staging through the internal buffer, then pads the
    /// tail on the stack. Equivalent to `new` + `update` + `finalize`,
    /// measurably cheaper for the workspace's hashing-heavy paths
    /// (transaction/block ids, Merkle nodes, log digests).
    #[must_use]
    pub fn digest(data: &[u8]) -> Digest {
        digest_on(compress_blocks, data)
    }
}

/// [`Sha256::digest`] on a given compression kernel — the dispatcher in
/// production, each kernel directly in the tests.
fn digest_on(kernel: impl Fn(&mut [u32; 8], &[u8]), data: &[u8]) -> Digest {
    let mut state = H0;
    let (whole, rest) = data.split_at(data.len() - data.len() % 64);
    kernel(&mut state, whole);
    let (tail, len) = padded_tail(rest, (data.len() as u64).wrapping_mul(8));
    kernel(&mut state, &tail[..len]);
    digest_of_state(&state)
}

/// The last one or two blocks of a message: `rest` (the < 64 bytes past
/// the last whole block), 0x80, zeros to 56 mod 64, then the bit length.
/// Returns the buffer and how many of its bytes are in use (64 or 128).
fn padded_tail(rest: &[u8], bit_len: u64) -> ([u8; 128], usize) {
    let mut tail = [0u8; 128];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    let len = if rest.len() >= 56 { 128 } else { 64 };
    tail[len - 8..len].copy_from_slice(&bit_len.to_be_bytes());
    (tail, len)
}

fn digest_of_state(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    Digest(out)
}

#[cfg(test)]
thread_local! {
    /// Compressions run by the current test thread.
    static COMPRESSIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Number of compressions `f` runs, for tests asserting that a keyed
/// context hashes every byte once. Per thread, so parallel tests do not
/// disturb each other's count.
#[cfg(test)]
pub(crate) fn count_compressions<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = COMPRESSIONS.get();
    let out = f();
    (COMPRESSIONS.get() - before, out)
}

/// Compresses `blocks` — a whole number of 64-byte blocks, possibly
/// none — into `state`, on the fastest kernel this CPU has.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    if blocks.is_empty() {
        return;
    }
    #[cfg(test)]
    COMPRESSIONS.set(COMPRESSIONS.get() + (blocks.len() / 64) as u64);
    #[cfg(target_arch = "x86_64")]
    if x86::compress_blocks(state, blocks) {
        return;
    }
    compress_blocks_portable(state, blocks);
}

/// The fallback kernel on CPUs without the SHA extensions, and the test
/// oracle for the one above.
fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        compress(state, block.try_into().expect("64-byte chunk"));
    }
}

fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The SHA-extensions kernel. This module holds `unsafe` code and
/// nothing else.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use super::K;
    use std::arch::x86_64::*;

    /// Whether this CPU has every feature [`kernel`] is compiled with.
    /// std caches the CPUID answer; each call is a load and a test.
    pub(super) fn detected() -> bool {
        std::is_x86_feature_detected!("sha")
            && std::is_x86_feature_detected!("sse2")
            && std::is_x86_feature_detected!("ssse3")
            && std::is_x86_feature_detected!("sse4.1")
    }

    /// Compresses `blocks` into `state` if this CPU has the extensions;
    /// `false` means it does not and nothing was done.
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) -> bool {
        if !detected() {
            return false;
        }
        // SAFETY: `detected` has just confirmed, from CPUID, every target
        // feature `kernel` is compiled with.
        unsafe { kernel(state, blocks) };
        true
    }

    /// FIPS 180-4 compression of every whole 64-byte block of `blocks`
    /// into `state` (trailing bytes short of a block are ignored), with
    /// the state held in two registers across blocks.
    ///
    /// `sha256rnds2` works on the state as the pairs `ABEF`/`CDGH` and
    /// does two rounds from the low two lanes of `W + K`; `sha256msg1`
    /// and `sha256msg2` are the two halves of the message schedule, four
    /// words at a time.
    ///
    /// # Safety
    ///
    /// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`
    /// ([`detected`]). Nothing else: all memory access is through the two
    /// references and stays inside them.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn kernel(state: &mut [u32; 8], blocks: &[u8]) {
        // Big-endian message words from little-endian lanes.
        let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // SAFETY: `state` is 32 readable bytes; `loadu` needs no alignment.
        let (dcba, hgfe) = unsafe {
            let p = state.as_ptr().cast::<__m128i>();
            (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
        };
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // `w[i % 4]` holds W[4i..4i + 4]; the loop bounds are
            // constants, so it unrolls and `w` lives in registers.
            let mut w = [_mm_setzero_si128(); 4];
            for i in 0..16 {
                w[i % 4] = if i < 4 {
                    // SAFETY: `block` is 64 bytes, so the 16 bytes at
                    // 16 * i (i < 4) are inside it; no alignment needed.
                    let raw = unsafe { _mm_loadu_si128(block.as_ptr().cast::<__m128i>().add(i)) };
                    _mm_shuffle_epi8(raw, byte_swap)
                } else {
                    let (w16, w12, w8, w4) =
                        (w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                    let partial =
                        _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), _mm_alignr_epi8(w4, w8, 4));
                    _mm_sha256msg2_epu32(partial, w4)
                };
                // SAFETY: `K` is 64 words, so the four at 4 * i (i < 16)
                // are inside it; no alignment needed.
                let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * i).cast::<__m128i>()) };
                let wk = _mm_add_epi32(w[i % 4], k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: `state` is 32 writable bytes; `storeu` needs no alignment.
        unsafe {
            let p = state.as_mut_ptr().cast::<__m128i>();
            _mm_storeu_si128(p, dcba);
            _mm_storeu_si128(p.add(1), hgfe);
        }
    }
}

/// A 32-byte SHA-256 digest.
///
/// `Digest` is the universal identifier type in the workspace: transaction
/// ids, block hashes and log-entry digests are all `Digest`s.
///
/// # Example
///
/// ```
/// use drams_crypto::sha256::Digest;
///
/// let d = Digest::of(b"abc");
/// assert!(d.to_hex().starts_with("ba7816bf"));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, used as a sentinel (e.g. the genesis parent).
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Hashes `data` in one shot (the buffer-free [`Sha256::digest`]
    /// fast path).
    #[must_use]
    pub fn of(data: &[u8]) -> Digest {
        Sha256::digest(data)
    }

    /// Hashes the concatenation of several byte slices.
    #[must_use]
    pub fn of_parts(parts: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for p in parts {
            h.update(p);
        }
        h.finalize()
    }

    /// Returns the raw digest bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Returns the digest as a lowercase hex string.
    #[must_use]
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Parses a 64-character hex string.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CryptoError::Malformed`] if the string is not
    /// exactly 64 hex characters.
    pub fn from_hex(s: &str) -> Result<Digest, crate::CryptoError> {
        let s = s.trim();
        if s.len() != 64 {
            return Err(crate::CryptoError::Malformed(format!(
                "digest hex must be 64 chars, got {}",
                s.len()
            )));
        }
        let mut out = [0u8; 32];
        for i in 0..32 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16)
                .map_err(|e| crate::CryptoError::Malformed(format!("bad hex: {e}")))?;
        }
        Ok(Digest(out))
    }

    /// Counts the number of leading zero *bits*, used by proof-of-work.
    #[must_use]
    pub fn leading_zero_bits(&self) -> u32 {
        let mut n = 0;
        for b in self.0 {
            if b == 0 {
                n += 8;
            } else {
                n += b.leading_zeros();
                break;
            }
        }
        n
    }
}

impl Default for Digest {
    fn default() -> Self {
        Digest::ZERO
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}..)", &self.to_hex()[..12])
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest {
    fn from(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A compression kernel: `(state, whole blocks)`.
    type Kernel = fn(&mut [u32; 8], &[u8]);

    /// The SHA-extensions kernel, called directly, if this CPU has it.
    fn sha_ni() -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        if x86::detected() {
            return Some(|state, blocks| assert!(x86::compress_blocks(state, blocks)));
        }
        None
    }

    /// The SHA-extensions kernel, or a line on stdout saying why the
    /// calling test checked nothing.
    fn sha_ni_or_say_skipped() -> Option<Kernel> {
        let kernel = sha_ni();
        if kernel.is_none() {
            println!("skipped: no sha extension");
        }
        kernel
    }

    #[test]
    fn nist_vectors_through_each_kernel() {
        println!(
            "sha256 kernel dispatched on this CPU: {}",
            if sha_ni().is_some() {
                "sha-ni"
            } else {
                "portable"
            }
        );
        let mut kernels = vec![("portable", compress_blocks_portable as Kernel)];
        kernels.extend(sha_ni_or_say_skipped().map(|k| ("sha-ni", k)));
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for (name, kernel) in kernels {
            for (message, expected) in vectors {
                assert_eq!(
                    digest_on(kernel, message).to_hex(),
                    expected,
                    "{name} kernel, {} bytes",
                    message.len()
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        // Not a `#[test]` itself: the test below runs it once it knows
        // the kernel exists, so a skip is said once and not per case.
        fn sha_ni_matches_portable_on_one_case(
            state in prop::array::uniform8(any::<u32>()),
            block in prop::collection::vec(any::<u8>(), 64..65),
        ) {
            let (mut expected, mut got) = (state, state);
            compress(&mut expected, block[..].try_into().expect("64 bytes"));
            sha_ni().expect("checked by the caller")(&mut got, &block);
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn sha_ni_matches_portable_on_random_state_and_block() {
        if sha_ni_or_say_skipped().is_some() {
            sha_ni_matches_portable_on_one_case();
        }
    }

    #[test]
    fn sha_ni_matches_portable_on_multi_block_runs_at_unaligned_offsets() {
        let Some(sha_ni) = sha_ni_or_say_skipped() else {
            return;
        };
        let mut rng = proptest::TestRng::deterministic("multi-block runs");
        let buffer: Vec<u8> = (0..9 * 64 + 16).map(|_| rng.next_u64() as u8).collect();
        for blocks in 0..=9 {
            for offset in 0..=16 {
                let run = &buffer[offset..offset + 64 * blocks];
                let state: [u32; 8] = std::array::from_fn(|_| rng.next_u64() as u32);
                let (mut expected, mut got) = (state, state);
                compress_blocks_portable(&mut expected, run);
                sha_ni(&mut got, run);
                assert_eq!(got, expected, "{blocks} blocks at offset {offset}");
            }
        }
    }

    #[test]
    fn update_split_at_every_offset_equals_digest() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 7 + 3) as u8).collect();
        let expected = Sha256::digest(&data);
        assert_eq!(digest_on(compress_blocks_portable, &data), expected);
        for split in 0..=130 {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expected, "split at {split}");
        }
    }

    #[test]
    fn nist_empty_vector() {
        assert_eq!(
            Digest::of(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc_vector() {
        assert_eq!(
            Digest::of(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_two_block_vector() {
        assert_eq!(
            Digest::of(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn quick_brown_fox() {
        assert_eq!(
            Digest::of(b"The quick brown fox jumps over the lazy dog").to_hex(),
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..255u8).collect();
        for split in [0usize, 1, 17, 63, 64, 65, 128, 200, 255] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Digest::of(&data), "split at {split}");
        }
    }

    #[test]
    fn of_parts_equals_concat() {
        assert_eq!(Digest::of_parts(&[b"ab", b"", b"c"]), Digest::of(b"abc"));
    }

    #[test]
    fn hex_round_trip() {
        let d = Digest::of(b"round trip");
        assert_eq!(Digest::from_hex(&d.to_hex()).unwrap(), d);
    }

    #[test]
    fn from_hex_rejects_bad_input() {
        assert!(Digest::from_hex("abc").is_err());
        assert!(Digest::from_hex(&"zz".repeat(32)).is_err());
    }

    #[test]
    fn leading_zero_bits_counts() {
        assert_eq!(Digest::ZERO.leading_zero_bits(), 256);
        let mut one = [0u8; 32];
        one[0] = 0x01;
        assert_eq!(Digest(one).leading_zero_bits(), 7);
        let mut b = [0u8; 32];
        b[1] = 0x80;
        assert_eq!(Digest(b).leading_zero_bits(), 8);
    }

    #[test]
    fn oneshot_equals_incremental_at_padding_boundaries() {
        // The one-shot digest has its own padding logic; pin it to the
        // incremental hasher across every block/padding boundary.
        for len in [
            0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 121, 127, 128, 129, 255, 256,
        ] {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut h = Sha256::new();
            h.update(&data);
            assert_eq!(Sha256::digest(&data), h.finalize(), "len {len}");
        }
    }

    #[test]
    fn padding_edge_lengths() {
        // Lengths straddling the 55/56/64-byte padding boundaries must all
        // produce distinct, stable digests (regression guard for the manual
        // padding logic in `finalize`).
        let mut seen = std::collections::HashSet::new();
        for len in 50..70 {
            let data = vec![0xabu8; len];
            let d = Digest::of(&data);
            assert!(seen.insert(d), "collision at len {len}");
            // and incremental agrees
            let mut h = Sha256::new();
            for b in &data {
                h.update(&[*b]);
            }
            assert_eq!(h.finalize(), d);
        }
    }
}
