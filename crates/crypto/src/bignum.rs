//! Fixed-width 256/512-bit unsigned integer arithmetic.
//!
//! This is the number-theoretic backend for [`crate::schnorr`]: modular
//! multiplication uses a 512-bit intermediate product reduced with Knuth's
//! Algorithm D (TAOCP Vol. 2, §4.3.1), and modular exponentiation is plain
//! MSB-first square-and-multiply. The implementation favours auditability
//! over speed; a bit-level shift-subtract reference division lives in the
//! test module and is cross-checked against Algorithm D with proptest.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A 256-bit unsigned integer, four little-endian 64-bit limbs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct U256(pub [u64; 4]);

/// A 512-bit unsigned integer, eight little-endian 64-bit limbs.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct U512(pub [u64; 8]);

impl U256 {
    /// The value 0.
    pub const ZERO: U256 = U256([0, 0, 0, 0]);
    /// The value 1.
    pub const ONE: U256 = U256([1, 0, 0, 0]);

    /// Constructs from little-endian limbs.
    #[must_use]
    pub const fn from_limbs(limbs: [u64; 4]) -> Self {
        U256(limbs)
    }

    /// Constructs from a `u64`.
    #[must_use]
    pub const fn from_u64(v: u64) -> Self {
        U256([v, 0, 0, 0])
    }

    /// Parses a big-endian hex string (with or without `0x`).
    ///
    /// # Panics
    ///
    /// Panics on invalid hex or length > 64 nybbles. Intended for constants
    /// and tests.
    #[must_use]
    pub fn from_hex(s: &str) -> Self {
        let s = s.trim_start_matches("0x");
        assert!(s.len() <= 64, "hex too long for U256");
        let padded = format!("{s:0>64}");
        let mut bytes = [0u8; 32];
        for i in 0..32 {
            bytes[i] = u8::from_str_radix(&padded[2 * i..2 * i + 2], 16).expect("invalid hex");
        }
        U256::from_be_bytes(bytes)
    }

    /// Constructs from 32 big-endian bytes.
    #[must_use]
    pub fn from_be_bytes(bytes: [u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&bytes[8 * (3 - i)..8 * (3 - i) + 8]);
            limbs[i] = u64::from_be_bytes(chunk);
        }
        U256(limbs)
    }

    /// Serialises to 32 big-endian bytes.
    #[must_use]
    pub fn to_be_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[8 * (3 - i)..8 * (3 - i) + 8].copy_from_slice(&self.0[i].to_be_bytes());
        }
        out
    }

    /// Lowercase hex without leading zeros (at least one digit).
    #[must_use]
    pub fn to_hex(self) -> String {
        let s: String = self
            .to_be_bytes()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        let trimmed = s.trim_start_matches('0');
        if trimmed.is_empty() {
            "0".to_string()
        } else {
            trimmed.to_string()
        }
    }

    /// True iff the value is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.0 == [0, 0, 0, 0]
    }

    /// True iff the value is even.
    #[must_use]
    pub fn is_even(&self) -> bool {
        self.0[0] & 1 == 0
    }

    /// Returns bit `i` (little-endian bit order).
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        debug_assert!(i < 256);
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of significant bits (0 for zero).
    #[must_use]
    pub fn bits(&self) -> usize {
        for i in (0..4).rev() {
            if self.0[i] != 0 {
                return 64 * i + (64 - self.0[i].leading_zeros() as usize);
            }
        }
        0
    }

    /// `(self + other, carry)`.
    // Measured kernel: indexed limb loops, kept as written.
    #[allow(clippy::needless_range_loop)]
    #[must_use]
    pub fn overflowing_add(self, other: U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = false;
        for i in 0..4 {
            let (s1, c1) = self.0[i].overflowing_add(other.0[i]);
            let (s2, c2) = s1.overflowing_add(u64::from(carry));
            out[i] = s2;
            carry = c1 || c2;
        }
        (U256(out), carry)
    }

    /// `(self - other, borrow)`.
    // Measured kernel: indexed limb loops, kept as written.
    #[allow(clippy::needless_range_loop)]
    #[must_use]
    pub fn overflowing_sub(self, other: U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = false;
        for i in 0..4 {
            let (d1, b1) = self.0[i].overflowing_sub(other.0[i]);
            let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
            out[i] = d2;
            borrow = b1 || b2;
        }
        (U256(out), borrow)
    }

    /// Wrapping subtraction (mod 2^256).
    #[must_use]
    pub fn wrapping_sub(self, other: U256) -> U256 {
        self.overflowing_sub(other).0
    }

    /// Full 256×256→512-bit product.
    #[must_use]
    pub fn full_mul(self, other: U256) -> U512 {
        let mut out = [0u64; 8];
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 {
                let acc =
                    u128::from(self.0[i]) * u128::from(other.0[j]) + u128::from(out[i + j]) + carry;
                out[i + j] = acc as u64;
                carry = acc >> 64;
            }
            out[i + 4] = out[i + 4].wrapping_add(carry as u64);
        }
        U512(out)
    }

    /// `self mod m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    // Named after the operation it is, not `std::ops::Rem` (public API).
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn rem(self, m: &U256) -> U256 {
        U512::from_u256(self).rem(m)
    }

    /// `(self + other) mod m`, for `self, other < m`.
    #[must_use]
    pub fn add_mod(self, other: U256, m: &U256) -> U256 {
        debug_assert!(self < *m && other < *m);
        let (sum, carry) = self.overflowing_add(other);
        if carry || sum >= *m {
            sum.wrapping_sub(*m)
        } else {
            sum
        }
    }

    /// `(self - other) mod m`, for `self, other < m`.
    #[must_use]
    pub fn sub_mod(self, other: U256, m: &U256) -> U256 {
        debug_assert!(self < *m && other < *m);
        let (diff, borrow) = self.overflowing_sub(other);
        if borrow {
            diff.overflowing_add(*m).0
        } else {
            diff
        }
    }

    /// `(self * other) mod m`.
    #[must_use]
    pub fn mul_mod(self, other: U256, m: &U256) -> U256 {
        self.full_mul(other).rem(m)
    }

    /// `self^exp mod m` by square-and-multiply.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    #[must_use]
    pub fn mod_pow(self, exp: &U256, m: &U256) -> U256 {
        assert!(!m.is_zero(), "modulus must be non-zero");
        if *m == U256::ONE {
            return U256::ZERO;
        }
        let base = self.rem(m);
        let mut acc = U256::ONE;
        let nbits = exp.bits();
        for i in (0..nbits).rev() {
            acc = acc.mul_mod(acc, m);
            if exp.bit(i) {
                acc = acc.mul_mod(base, m);
            }
        }
        acc
    }

    /// Modular inverse for a **prime** modulus, via Fermat's little theorem.
    ///
    /// Returns `None` when `self ≡ 0 (mod m)`.
    #[must_use]
    pub fn mod_inv_prime(self, m: &U256) -> Option<U256> {
        if self.rem(m).is_zero() {
            return None;
        }
        // a^(m-2) mod m
        let exp = m.wrapping_sub(U256::from_u64(2));
        Some(self.mod_pow(&exp, m))
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.0[i].cmp(&other.0[i]) {
                Ordering::Equal => continue,
                non_eq => return non_eq,
            }
        }
        Ordering::Equal
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256(0x{})", self.to_hex())
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        U256::from_u64(v)
    }
}

impl U512 {
    /// The value 0.
    pub const ZERO: U512 = U512([0; 8]);

    /// Zero-extends a [`U256`].
    #[must_use]
    pub fn from_u256(v: U256) -> Self {
        U512([v.0[0], v.0[1], v.0[2], v.0[3], 0, 0, 0, 0])
    }

    /// Truncates to the low 256 bits.
    #[must_use]
    pub fn low_u256(&self) -> U256 {
        U256([self.0[0], self.0[1], self.0[2], self.0[3]])
    }

    /// True iff the value is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&l| l == 0)
    }

    /// `self mod m` via Knuth Algorithm D.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    #[must_use]
    pub fn rem(&self, m: &U256) -> U256 {
        assert!(!m.is_zero(), "division by zero");
        let (_, r) = div_rem_knuth(&self.0, &m.0);
        r
    }

    /// `(self / m, self mod m)` via Knuth Algorithm D.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    #[must_use]
    pub fn div_rem(&self, m: &U256) -> (U512, U256) {
        assert!(!m.is_zero(), "division by zero");
        div_rem_knuth(&self.0, &m.0)
    }
}

impl fmt::Debug for U512 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hex: String = self.0.iter().rev().map(|l| format!("{l:016x}")).collect();
        write!(f, "U512(0x{})", hex.trim_start_matches('0'))
    }
}

/// Knuth TAOCP Algorithm D: divides an 8-limb dividend by a ≤4-limb
/// divisor, returning (quotient, remainder).
fn div_rem_knuth(u_in: &[u64; 8], v_in: &[u64; 4]) -> (U512, U256) {
    // Trim divisor leading zero limbs.
    let mut n = 4;
    while n > 0 && v_in[n - 1] == 0 {
        n -= 1;
    }
    assert!(n > 0, "division by zero");

    // Trim dividend leading zero limbs (m = significant limb count).
    let mut m = 8;
    while m > 0 && u_in[m - 1] == 0 {
        m -= 1;
    }
    if m == 0 {
        return (U512::ZERO, U256::ZERO);
    }

    // Dividend smaller than divisor: quotient 0.
    if m < n || (m == n && cmp_limbs(&u_in[..m], &v_in[..n]) == Ordering::Less) {
        let mut r = [0u64; 4];
        r[..m.min(4)].copy_from_slice(&u_in[..m.min(4)]);
        return (U512::ZERO, U256(r));
    }

    // Single-limb divisor: simple schoolbook with u128.
    if n == 1 {
        let d = u128::from(v_in[0]);
        let mut q = [0u64; 8];
        let mut rem: u128 = 0;
        for i in (0..m).rev() {
            let cur = (rem << 64) | u128::from(u_in[i]);
            q[i] = (cur / d) as u64;
            rem = cur % d;
        }
        return (U512(q), U256([rem as u64, 0, 0, 0]));
    }

    // D1: normalise so the divisor's top limb has its high bit set.
    let s = v_in[n - 1].leading_zeros();
    let mut vn = [0u64; 4];
    for i in 0..n {
        vn[i] = v_in[i] << s;
        if s > 0 && i > 0 {
            vn[i] |= v_in[i - 1] >> (64 - s);
        }
    }
    let mut un = [0u64; 9];
    if s > 0 {
        un[m] = u_in[m - 1] >> (64 - s);
    }
    for i in (0..m).rev() {
        un[i] = u_in[i] << s;
        if s > 0 && i > 0 {
            un[i] |= u_in[i - 1] >> (64 - s);
        }
    }

    let b: u128 = 1 << 64;
    let mut q = [0u64; 8];

    // D2..D7: main loop.
    for j in (0..=m - n).rev() {
        // D3: estimate qhat.
        let top = (u128::from(un[j + n]) << 64) | u128::from(un[j + n - 1]);
        let mut qhat = top / u128::from(vn[n - 1]);
        let mut rhat = top % u128::from(vn[n - 1]);
        loop {
            if qhat >= b || qhat * u128::from(vn[n - 2]) > (rhat << 64) + u128::from(un[j + n - 2])
            {
                qhat -= 1;
                rhat += u128::from(vn[n - 1]);
                if rhat < b {
                    continue;
                }
            }
            break;
        }

        // D4: multiply and subtract (Hacker's Delight divmnu pattern).
        let mut k: i128 = 0;
        for i in 0..n {
            let p = qhat * u128::from(vn[i]);
            let t = i128::from(un[j + i]) - k - ((p & 0xFFFF_FFFF_FFFF_FFFF) as i128);
            un[j + i] = t as u64;
            k = ((p >> 64) as i128) - (t >> 64);
        }
        let t = i128::from(un[j + n]) - k;
        un[j + n] = t as u64;

        // D5/D6: if we subtracted too much, add one divisor back.
        if t < 0 {
            qhat -= 1;
            let mut carry: u128 = 0;
            for i in 0..n {
                let sum = u128::from(un[j + i]) + u128::from(vn[i]) + carry;
                un[j + i] = sum as u64;
                carry = sum >> 64;
            }
            un[j + n] = un[j + n].wrapping_add(carry as u64);
        }
        q[j] = qhat as u64;
    }

    // D8: denormalise the remainder.
    let mut r = [0u64; 4];
    for i in 0..n {
        r[i] = un[i] >> s;
        if s > 0 && i + 1 < 9 {
            let hi = un[i + 1] << (64 - s);
            if s > 0 {
                r[i] |= hi;
            }
        }
    }
    (U512(q), U256(r))
}

fn cmp_limbs(a: &[u64], b: &[u64]) -> Ordering {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Equal => continue,
            non_eq => return non_eq,
        }
    }
    Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The 256-bit safe prime used by the Schnorr group (see schnorr.rs).
    fn p() -> U256 {
        U256::from_hex("8232159ce3aaabcb7e79630eda13a97087fda834f152bdac26761be39f039a2b")
    }

    /// Bit-level shift-subtract division: slow, obviously-correct reference.
    // Indexed limb loops, like the kernel it checks.
    #[allow(clippy::needless_range_loop)]
    fn rem_reference(a: &U512, m: &U256) -> U256 {
        assert!(!m.is_zero());
        let mut r = [0u64; 5]; // remainder < m < 2^256, plus a shift bit
        for i in (0..512).rev() {
            // r <<= 1
            for k in (1..5).rev() {
                r[k] = (r[k] << 1) | (r[k - 1] >> 63);
            }
            r[0] <<= 1;
            // set bit 0 to dividend bit i
            if (a.0[i / 64] >> (i % 64)) & 1 == 1 {
                r[0] |= 1;
            }
            // if r >= m { r -= m }
            let ge = if r[4] != 0 {
                true
            } else {
                cmp_limbs(&r[..4], &m.0) != Ordering::Less
            };
            if ge {
                let mut borrow = false;
                for k in 0..4 {
                    let (d1, b1) = r[k].overflowing_sub(m.0[k]);
                    let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
                    r[k] = d2;
                    borrow = b1 || b2;
                }
                r[4] = r[4].wrapping_sub(u64::from(borrow));
            }
        }
        U256([r[0], r[1], r[2], r[3]])
    }

    #[test]
    fn hex_round_trip() {
        let v = U256::from_hex("deadbeef00000000000000000000000000000000000000000000000000000001");
        assert_eq!(
            v.to_hex(),
            "deadbeef00000000000000000000000000000000000000000000000000000001"
        );
        assert_eq!(U256::ZERO.to_hex(), "0");
    }

    #[test]
    fn be_bytes_round_trip() {
        let v = U256::from_hex("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef");
        assert_eq!(U256::from_be_bytes(v.to_be_bytes()), v);
    }

    #[test]
    fn ordering_and_bits() {
        assert!(U256::ZERO < U256::ONE);
        assert!(
            U256::from_u64(5) < U256::from_hex("1_0000_0000_0000_0000".replace('_', "").as_str())
        );
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U256::ONE.bits(), 1);
        assert_eq!(U256::from_u64(0x80).bits(), 8);
        assert_eq!(p().bits(), 256);
    }

    #[test]
    fn add_sub_round_trip() {
        let a = U256::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
        let (sum, carry) = a.overflowing_add(U256::ONE);
        assert!(carry);
        assert!(sum.is_zero());
        let (diff, borrow) = U256::ZERO.overflowing_sub(U256::ONE);
        assert!(borrow);
        assert_eq!(diff, a);
    }

    #[test]
    fn full_mul_known_vectors() {
        // Generated with Python: a*b % p and full products.
        let a = U256::from_hex("1e2feb89414c343c1027c4d1c386bbc4cd613e30d8f16adf91b7584a2265b1f5");
        let b = U256::from_hex("35bf992dc9e9c616612e7696a6cecc1b78e510617311d8a3c2ce6f447ed4d57b");
        let expected =
            U256::from_hex("56207b1b110548d733f7e5ac57130b19930c6e168cbb671b5a693a00e659beee");
        assert_eq!(a.mul_mod(b, &p()), expected);
    }

    #[test]
    fn mod_pow_known_vectors() {
        let a = U256::from_hex("1e2feb89414c343c1027c4d1c386bbc4cd613e30d8f16adf91b7584a2265b1f5");
        let b = U256::from_hex("35bf992dc9e9c616612e7696a6cecc1b78e510617311d8a3c2ce6f447ed4d57b");
        let expected =
            U256::from_hex("430cf7ed87b2c96201a971d0467e2fc1a7a7484f5febacea11770107c72273fd");
        assert_eq!(a.mod_pow(&b, &p()), expected);

        let a2 = U256::from_hex("194ef8d98b1f26bae5511f7efbe10a425cb2c4b115ef09fc566e109e79039461");
        let b2 = U256::from_hex("4b126898d50c2d32c5b4da3497f13bbd2a2472230f3747fa9dee557624212f5a");
        let e2 = U256::from_hex("460e7b59797d7c4e8e47954354d5f7dcc930046d95f347c990631d7b7411aaeb");
        assert_eq!(a2.mod_pow(&b2, &p()), e2);
    }

    #[test]
    fn mul_mod_second_vector() {
        let a = U256::from_hex("194ef8d98b1f26bae5511f7efbe10a425cb2c4b115ef09fc566e109e79039461");
        let b = U256::from_hex("4b126898d50c2d32c5b4da3497f13bbd2a2472230f3747fa9dee557624212f5a");
        let e = U256::from_hex("2063dbe58327f33d8e8066530d622d19f69e64b3d151bbc29840ee24c4a31470");
        assert_eq!(a.mul_mod(b, &p()), e);
    }

    #[test]
    fn mod_pow_edges() {
        let m = p();
        assert_eq!(U256::from_u64(2).mod_pow(&U256::ZERO, &m), U256::ONE);
        assert_eq!(U256::from_u64(2).mod_pow(&U256::ONE, &m), U256::from_u64(2));
        assert_eq!(U256::ZERO.mod_pow(&U256::from_u64(5), &m), U256::ZERO);
        assert_eq!(
            U256::from_u64(7).mod_pow(&U256::ONE, &U256::ONE),
            U256::ZERO
        );
    }

    #[test]
    fn fermat_little_theorem_holds() {
        // a^(p-1) ≡ 1 mod p for prime p.
        let m = p();
        let exp = m.wrapping_sub(U256::ONE);
        for a in [2u64, 3, 65537, 0xdead_beef] {
            assert_eq!(U256::from_u64(a).mod_pow(&exp, &m), U256::ONE);
        }
    }

    #[test]
    fn mod_inv_prime_works() {
        let m = p();
        for a in [2u64, 3, 12345, 0xffff_ffff] {
            let a = U256::from_u64(a);
            let inv = a.mod_inv_prime(&m).unwrap();
            assert_eq!(a.mul_mod(inv, &m), U256::ONE);
        }
        assert!(U256::ZERO.mod_inv_prime(&m).is_none());
    }

    #[test]
    fn division_by_single_limb() {
        let a = U512::from_u256(U256::from_u64(1000));
        let (q, r) = a.div_rem(&U256::from_u64(7));
        assert_eq!(q.low_u256(), U256::from_u64(142));
        assert_eq!(r, U256::from_u64(6));
    }

    #[test]
    fn division_identity_reconstructs() {
        // q*m + r == a for a handful of structured cases.
        let m = p();
        let cases = [
            U512::from_u256(U256::ZERO),
            U512::from_u256(U256::ONE),
            U512::from_u256(m),
            U512([u64::MAX; 8]),
            U512([0, 0, 0, 0, 1, 0, 0, 0]),
            U512([0xdead_beef, 0, 0, 0, 0, 0, 0, 0x8000_0000_0000_0000]),
        ];
        for a in cases {
            let (q, r) = a.div_rem(&m);
            assert!(r < m);
            // reconstruct: q*m + r (verify low 512 bits match)
            let q_lo = q.low_u256();
            // q fits in 256 bits only when a < m << 256; here m has bit 255 set
            // so q always fits 257 bits; for these cases verify via reference.
            assert_eq!(r, rem_reference(&a, &m), "case {a:?} q={q_lo:?}");
        }
    }

    #[test]
    fn rem_smaller_than_divisor_is_identity() {
        let m = p();
        let small = U256::from_u64(42);
        assert_eq!(small.rem(&m), small);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = U512::from_u256(U256::ONE).rem(&U256::ZERO);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn knuth_matches_reference(limbs in prop::array::uniform8(any::<u64>()),
                                   mlimbs in prop::array::uniform4(any::<u64>())) {
            prop_assume!(mlimbs != [0, 0, 0, 0]);
            let a = U512(limbs);
            let m = U256(mlimbs);
            prop_assert_eq!(a.rem(&m), rem_reference(&a, &m));
        }

        #[test]
        fn mul_mod_commutes(a in prop::array::uniform4(any::<u64>()),
                            b in prop::array::uniform4(any::<u64>())) {
            let m = p();
            let a = U256(a).rem(&m);
            let b = U256(b).rem(&m);
            prop_assert_eq!(a.mul_mod(b, &m), b.mul_mod(a, &m));
        }

        #[test]
        fn add_mod_inverse(a in prop::array::uniform4(any::<u64>())) {
            let m = p();
            let a = U256(a).rem(&m);
            let neg = U256::ZERO.sub_mod(a, &m);
            prop_assert_eq!(a.add_mod(neg, &m), U256::ZERO);
        }

        #[test]
        fn mul_distributes_over_add(a in prop::array::uniform4(any::<u64>()),
                                    b in prop::array::uniform4(any::<u64>()),
                                    c in prop::array::uniform4(any::<u64>())) {
            let m = p();
            let a = U256(a).rem(&m);
            let b = U256(b).rem(&m);
            let c = U256(c).rem(&m);
            let lhs = a.mul_mod(b.add_mod(c, &m), &m);
            let rhs = a.mul_mod(b, &m).add_mod(a.mul_mod(c, &m), &m);
            prop_assert_eq!(lhs, rhs);
        }

        #[test]
        fn pow_adds_exponents(a in prop::array::uniform4(any::<u64>()),
                              x in any::<u64>(), y in any::<u64>()) {
            let m = p();
            let a = U256(a).rem(&m);
            prop_assume!(!a.is_zero());
            let lhs = a.mod_pow(&U256::from_u64(x), &m)
                       .mul_mod(a.mod_pow(&U256::from_u64(y), &m), &m);
            // x + y may overflow u64; do it in U256.
            let (exp, _) = U256::from_u64(x).overflowing_add(U256::from_u64(y));
            let rhs = a.mod_pow(&exp, &m);
            prop_assert_eq!(lhs, rhs);
        }

        #[test]
        fn be_bytes_round_trips(a in prop::array::uniform4(any::<u64>())) {
            let v = U256(a);
            prop_assert_eq!(U256::from_be_bytes(v.to_be_bytes()), v);
        }
    }
}
