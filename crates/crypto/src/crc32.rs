//! IEEE CRC-32 (reflected polynomial `0xEDB8_8320`, all-ones initial
//! value, inverted result): the checksum under every WAL record, journal
//! fold, snapshot and `drams-net` frame. `drams_store::segment::crc32`
//! re-exports [`crc32`]; nothing else in the workspace computes one.
//!
//! # Kernels
//!
//! The checksum exists twice, and only twice. `update_portable` is
//! slice-by-8 — eight input bytes per table step, no `unsafe` — and runs
//! on every CPU without carry-less multiplication; it is also the oracle
//! the other kernel is tested against. `x86::fold` folds 64 bytes per
//! step with `pclmulqdq` (Gopal et al., "Fast CRC Computation for Generic
//! Polynomials Using PCLMULQDQ Instruction", Intel, 2009) and
//! Barrett-reduces the 128-bit remainder. `update` picks between them
//! from what the CPU reports (`is_x86_feature_detected!`, cached by std)
//! — nothing a user can set selects a kernel — and hands the folding
//! kernel the whole 16-byte blocks of any input of at least
//! `x86::MIN_LEN` bytes, the table the rest. Both kernels give the same
//! value for the same bytes, so no byte on disk or on the wire depends on
//! the CPU.
//!
//! The `x86` module is `unsafe` code, like `sha256::x86`: the crate is
//! `#![deny(unsafe_code)]` with one `#[allow]` on each of the two.

/// IEEE CRC-32 of `bytes`, on the fastest kernel this CPU has.
///
/// # Example
///
/// ```
/// use drams_crypto::crc32::crc32;
///
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
/// ```
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_on(update, bytes)
}

/// [`crc32`] on a given kernel — the dispatcher in production, each
/// kernel directly in the tests. A kernel maps a running (uninverted) CRC
/// state and more bytes to the state after them.
fn crc32_on(kernel: impl Fn(u32, &[u8]) -> u32, bytes: &[u8]) -> u32 {
    !kernel(!0, bytes)
}

/// Advances `crc` over `bytes` on the fastest kernel this CPU has.
fn update(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= x86::MIN_LEN {
        let (blocks, tail) = bytes.split_at(bytes.len() - bytes.len() % 16);
        if let Some(crc) = x86::fold(crc, blocks) {
            return update_portable(crc, tail);
        }
    }
    update_portable(crc, bytes)
}

/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k][b]`
/// is the CRC state after byte `b` followed by `k` zero bytes, which is
/// what lets [`update_portable`] fold eight input bytes per step.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// The kernel on CPUs without carry-less multiplication, the tail of
/// every input on the ones with it, and the test oracle.
///
/// Slice-by-8: each step XORs the running CRC into the first four of
/// eight input bytes and looks every byte up in the table for its
/// distance from the end of the group (8 KiB of tables); the < 8-byte
/// tail goes a byte at a time.
fn update_portable(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut groups = bytes.chunks_exact(8);
    for g in &mut groups {
        let [a, b, c, d] = (crc ^ u32::from_le_bytes([g[0], g[1], g[2], g[3]])).to_le_bytes();
        crc = CRC_TABLES[7][a as usize]
            ^ CRC_TABLES[6][b as usize]
            ^ CRC_TABLES[5][c as usize]
            ^ CRC_TABLES[4][d as usize]
            ^ CRC_TABLES[3][g[4] as usize]
            ^ CRC_TABLES[2][g[5] as usize]
            ^ CRC_TABLES[1][g[6] as usize]
            ^ CRC_TABLES[0][g[7] as usize];
    }
    for &b in groups.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    crc
}

/// The carry-less-multiplication kernel. This module holds `unsafe` code
/// and nothing else.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use std::arch::x86_64::*;

    /// The shortest input the dispatcher folds: one four-register step.
    pub(super) const MIN_LEN: usize = 64;

    /// Whether this CPU has every feature [`kernel`] is compiled with.
    /// std caches the CPUID answer; each call is a load and a test.
    pub(super) fn detected() -> bool {
        std::is_x86_feature_detected!("pclmulqdq") && std::is_x86_feature_detected!("sse4.1")
    }

    /// Advances `crc` over `blocks` — a whole number of 16-byte blocks,
    /// possibly none — if this CPU has the features; `None` means it does
    /// not and nothing was done.
    pub(super) fn fold(crc: u32, blocks: &[u8]) -> Option<u32> {
        debug_assert_eq!(blocks.len() % 16, 0, "whole blocks only");
        if !detected() {
            return None;
        }
        if blocks.len() < 16 {
            return Some(crc);
        }
        // SAFETY: `detected` has just confirmed, from CPUID, every target
        // feature `kernel` is compiled with, and `blocks` holds a block.
        Some(unsafe { kernel(crc, blocks) })
    }

    // The fold constants, bit-reflected as the reflected CRC wants them,
    // `(high lane, low lane)`: `x^d mod P` for the distance `d` a lane
    // moves, and the Barrett pair.
    /// Four registers forward: `x^(512−32)`, `x^(512+32)`.
    const K1_K2: (i64, i64) = (0x1_c6e4_1596, 0x1_5444_2bd4);
    /// One register forward: `x^(128−32)`, `x^(128+32)`.
    const K3_K4: (i64, i64) = (0x0_ccaa_009e, 0x1_7519_97d0);
    /// The last 64 bits into 32: `x^64`.
    const K5: i64 = 0x1_63cd_6124;
    /// Barrett: `floor(x^64 / P)` and `P`.
    const MU_P: (i64, i64) = (0x1_f701_1641, 0x1_db71_0641);

    /// The 16 bytes of `bytes` at block index `i`.
    ///
    /// # Safety
    ///
    /// `bytes` must hold at least `16 * (i + 1)` bytes.
    #[inline(always)]
    unsafe fn load(bytes: &[u8], i: usize) -> __m128i {
        debug_assert!(bytes.len() >= 16 * (i + 1));
        // SAFETY: the caller keeps the 16 bytes at 16 * i inside `bytes`;
        // `loadu` needs no alignment.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast::<__m128i>().add(i)) }
    }

    /// `x` carried forward by the distance `k` encodes, as a remainder
    /// still to be XORed with the block it lands on.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse2")]
    fn advance(x: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_clmulepi64_si128(x, k, 0x00),
            _mm_clmulepi64_si128(x, k, 0x11),
        )
    }

    /// The CRC state after `crc` and every whole 16-byte block of
    /// `blocks`.
    ///
    /// The first block is XORed with the state. With 64 bytes or more,
    /// four registers fold 64 bytes a step and are then folded into one;
    /// that one takes what is left, 16 bytes a step. The 128-bit
    /// remainder is folded to 64 bits, then 32, and Barrett-reduced
    /// modulo P.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq`, `sse2` and `sse4.1`
    /// ([`detected`]), and `blocks` must hold at least 16 bytes. Nothing
    /// else: all memory access is through `blocks` and stays inside it.
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    unsafe fn kernel(crc: u32, blocks: &[u8]) -> u32 {
        let k1_k2 = _mm_set_epi64x(K1_K2.0, K1_K2.1);
        let k3_k4 = _mm_set_epi64x(K3_K4.0, K3_K4.1);
        let (first, mut rest) = blocks.split_at(16);
        // SAFETY: `first` is 16 bytes.
        let mut x = _mm_xor_si128(unsafe { load(first, 0) }, _mm_cvtsi32_si128(crc as i32));
        if rest.len() >= 48 {
            // SAFETY: `rest` holds at least three blocks.
            let mut regs = unsafe { [x, load(rest, 0), load(rest, 1), load(rest, 2)] };
            let mut steps = rest[48..].chunks_exact(64);
            for step in &mut steps {
                for (i, reg) in regs.iter_mut().enumerate() {
                    // SAFETY: `step` is 64 bytes, four blocks, and i < 4.
                    *reg = _mm_xor_si128(advance(*reg, k1_k2), unsafe { load(step, i) });
                }
            }
            rest = steps.remainder();
            x = regs[0];
            for reg in &regs[1..] {
                x = _mm_xor_si128(advance(x, k3_k4), *reg);
            }
        }
        for block in rest.chunks_exact(16) {
            // SAFETY: `block` is 16 bytes.
            x = _mm_xor_si128(advance(x, k3_k4), unsafe { load(block, 0) });
        }

        // 128 → 64 bits, appending the 32 zero bits a CRC implies.
        let x = _mm_xor_si128(_mm_clmulepi64_si128(k3_k4, x, 0x01), _mm_srli_si128(x, 8));
        // 64 → 32 bits.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: q = (x mod x^32) · μ, remainder x − (q mod x^32) · P.
        let mu_p = _mm_set_epi64x(MU_P.0, MU_P.1);
        let q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), mu_p, 0x10);
        let r = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(q, low32), mu_p, 0x00), x);
        _mm_extract_epi32(r, 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A CRC kernel: `(state, bytes) -> state`.
    type Kernel = fn(u32, &[u8]) -> u32;

    /// The CRC-32 definition itself, a bit at a time: reflected IEEE
    /// polynomial, all-ones initial value, inverted result. No table.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// The folding kernel called directly, at every length (the table
    /// takes what is left of the last 16-byte block), if this CPU has it.
    fn pclmul() -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        if x86::detected() {
            return Some(|crc, bytes| {
                let (blocks, tail) = bytes.split_at(bytes.len() - bytes.len() % 16);
                update_portable(x86::fold(crc, blocks).expect("detected"), tail)
            });
        }
        None
    }

    /// Every kernel this CPU has, by name, after a line on stdout if the
    /// folding kernel is missing — so a pass is not mistaken for a check.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut kernels = vec![("slice-by-8", update_portable as Kernel)];
        match pclmul() {
            Some(kernel) => kernels.push(("pclmulqdq", kernel)),
            None => println!("skipped: no pclmulqdq"),
        }
        kernels
    }

    #[test]
    fn check_values_through_each_kernel() {
        println!(
            "crc32 kernel dispatched on this CPU: {}",
            if pclmul().is_some() {
                "pclmulqdq"
            } else {
                "slice-by-8"
            }
        );
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], u32); 4] = [
            (b"", 0),
            (b"123456789", 0xCBF4_3926),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
            (&million_a, 0xDC25_BFBC),
        ];
        for (name, kernel) in kernels()
            .into_iter()
            .chain([("dispatched", update as Kernel)])
        {
            for (bytes, expected) in vectors {
                assert_eq!(
                    crc32_on(kernel, bytes),
                    expected,
                    "{name} kernel, {} bytes",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn each_kernel_matches_the_bitwise_reference_at_every_length_and_offset() {
        let mut rng = proptest::TestRng::deterministic("crc32 lengths");
        let buffer: Vec<u8> = (0..1_024 + 16).map(|_| rng.next_u64() as u8).collect();
        let kernels = kernels();
        for start in 0..16 {
            for len in 0..=1_024 {
                let bytes = &buffer[start..start + len];
                let expected = crc32_bitwise(bytes);
                for (name, kernel) in &kernels {
                    assert_eq!(
                        crc32_on(kernel, bytes),
                        expected,
                        "{name} kernel, {len} bytes at offset {start}"
                    );
                }
            }
        }
    }

    #[test]
    fn one_kernel_continues_the_state_another_left() {
        // The dispatcher hands the table whatever the folding kernel left:
        // a state must mean the same on both sides of the hand-over.
        let bytes: Vec<u8> = (0..700u32).map(|i| (i * 131 + 7) as u8).collect();
        let expected = crc32_bitwise(&bytes);
        let kernels = kernels();
        for split in (0..=bytes.len()).step_by(16) {
            for (first, a) in &kernels {
                for (second, b) in &kernels {
                    let crc = !b(a(!0, &bytes[..split]), &bytes[split..]);
                    assert_eq!(crc, expected, "{first} then {second}, split at {split}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn each_kernel_matches_the_bitwise_reference_on_random_buffers(
            bytes in prop::collection::vec(any::<u8>(), 0..300_000),
            start in 0usize..16,
        ) {
            let bytes = &bytes[start.min(bytes.len())..];
            let expected = crc32_bitwise(bytes);
            for (name, kernel) in kernels() {
                prop_assert_eq!(crc32_on(kernel, bytes), expected, "{} kernel", name);
            }
            prop_assert_eq!(crc32(bytes), expected);
        }
    }
}
