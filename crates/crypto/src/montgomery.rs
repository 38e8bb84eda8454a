//! Montgomery-form modular arithmetic for odd 256-bit moduli.
//!
//! [`crate::bignum`]'s `mul_mod` runs a full Knuth Algorithm D division
//! per product, which makes a 256-bit `mod_pow` cost ~384 divisions.
//! This module replaces that in hot paths with Montgomery REDC
//! (`MontCtx::mont_mul`: a 4×4 schoolbook product interleaved with the
//! reduction — no division at all), fixed-window (w = 4) exponentiation
//! for arbitrary bases, and a precomputed fixed-base table
//! ([`FixedBaseTable`]) that turns exponentiations of a *fixed* generator
//! into 64 table multiplications with zero squarings.
//!
//! The Algorithm D path in `bignum` is retained untouched as the
//! auditable reference; `tests/prop_montgomery.rs` cross-checks the two
//! over random operands and the real Schnorr group moduli. All values
//! enter and leave in ordinary (non-Montgomery) representation unless a
//! function name says `_mont`.

use crate::bignum::{U256, U512};

/// Exponentiation window width in bits. 16-entry tables; a 256-bit
/// exponent is 64 windows.
const WINDOW_BITS: usize = 4;
/// Number of 4-bit windows in a 256-bit exponent.
const WINDOWS: usize = 256 / WINDOW_BITS;

#[cfg(test)]
thread_local! {
    /// Montgomery products run by the current test thread.
    static PRODUCTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Number of [`MontCtx::mont_mul`] calls `f` makes, for tests that hold
/// an exponentiation path to its multiplication budget. Per thread, so
/// parallel tests do not disturb each other's count.
#[cfg(test)]
pub(crate) fn count_products<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = PRODUCTS.get();
    let out = f();
    (PRODUCTS.get() - before, out)
}

/// Precomputed Montgomery context for one odd modulus `m`.
///
/// Holds `R² mod m` (for conversion into Montgomery form, `R = 2^256`),
/// `R mod m` (the Montgomery form of 1) and `-m⁻¹ mod 2^64` (the REDC
/// constant). Construction costs two Algorithm D reductions and a short
/// Newton iteration; every subsequent `mont_mul` is division-free.
#[derive(Debug, Clone)]
pub struct MontCtx {
    m: U256,
    /// `-m⁻¹ mod 2^64`.
    n0: u64,
    /// `R² mod m`.
    r2: U256,
    /// `R mod m` — the Montgomery representation of 1.
    one: U256,
}

impl MontCtx {
    /// Builds a context for an odd modulus.
    ///
    /// # Panics
    ///
    /// Panics if `m` is even (REDC requires `gcd(m, 2^64) = 1`).
    #[must_use]
    pub fn new(m: U256) -> Self {
        assert!(!m.is_even(), "Montgomery modulus must be odd");
        // Newton–Hensel iteration for m0^-1 mod 2^64: each step doubles
        // the number of correct low bits; 6 steps exceed 64 bits.
        let m0 = m.0[0];
        let mut inv = m0; // correct to 3 bits (m0 odd)
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        let n0 = inv.wrapping_neg();
        // R mod m and R² mod m via the reference division (setup only).
        let r_mod_m = U512([0, 0, 0, 0, 1, 0, 0, 0]).rem(&m);
        let r2 = r_mod_m.full_mul(r_mod_m).rem(&m);
        MontCtx {
            m,
            n0,
            r2,
            one: r_mod_m,
        }
    }

    /// The modulus this context reduces by.
    #[must_use]
    pub fn modulus(&self) -> &U256 {
        &self.m
    }

    /// Montgomery product `a·b·R⁻¹ mod m` (CIOS: coarsely integrated
    /// operand scanning, Koç et al.). Correct for `a < 2^256`, `b < m`;
    /// the result is fully reduced (`< m`).
    // Measured kernel: indexed limb loops, kept as written.
    #[allow(clippy::needless_range_loop)]
    #[must_use]
    pub(crate) fn mont_mul(&self, a: &U256, b: &U256) -> U256 {
        #[cfg(test)]
        PRODUCTS.set(PRODUCTS.get() + 1);
        let m = &self.m.0;
        // t holds the running (s+2)-limb accumulator.
        let mut t = [0u64; 6];
        for i in 0..4 {
            // t += a[i] * b
            let ai = u128::from(a.0[i]);
            let mut carry: u128 = 0;
            for j in 0..4 {
                let acc = u128::from(t[j]) + ai * u128::from(b.0[j]) + carry;
                t[j] = acc as u64;
                carry = acc >> 64;
            }
            let acc = u128::from(t[4]) + carry;
            t[4] = acc as u64;
            t[5] = t[5].wrapping_add((acc >> 64) as u64);

            // u = t[0] · n0 mod 2^64; t += u·m; t >>= 64
            let u = u128::from(t[0].wrapping_mul(self.n0));
            let acc = u128::from(t[0]) + u * u128::from(m[0]);
            let mut carry = acc >> 64; // low limb is now zero by choice of u
            for j in 1..4 {
                let acc = u128::from(t[j]) + u * u128::from(m[j]) + carry;
                t[j - 1] = acc as u64;
                carry = acc >> 64;
            }
            let acc = u128::from(t[4]) + carry;
            t[3] = acc as u64;
            let acc = u128::from(t[5]) + (acc >> 64);
            t[4] = acc as u64;
            t[5] = (acc >> 64) as u64;
        }
        let lo = U256([t[0], t[1], t[2], t[3]]);
        // The CIOS invariant gives t < 2m, so one conditional subtract
        // fully reduces.
        if t[4] != 0 || lo >= self.m {
            lo.wrapping_sub(self.m)
        } else {
            lo
        }
    }

    /// Converts into Montgomery form: `a·R mod m`. Accepts any `a`
    /// (including `a ≥ m`); the REDC doubles as the reduction.
    #[must_use]
    pub(crate) fn to_mont(&self, a: &U256) -> U256 {
        self.mont_mul(a, &self.r2)
    }

    /// Converts out of Montgomery form: `ā·R⁻¹ mod m`.
    // `to_mont`'s inverse through this context, not a constructor.
    #[allow(clippy::wrong_self_convention)]
    #[must_use]
    pub(crate) fn from_mont(&self, a: &U256) -> U256 {
        self.mont_mul(a, &U256::ONE)
    }

    /// `a mod m` without a division (two Montgomery products).
    #[must_use]
    pub fn reduce(&self, a: &U256) -> U256 {
        let am = self.to_mont(a);
        self.from_mont(&am)
    }

    /// `(a · b) mod m` through Montgomery form (two `mont_mul`s, no
    /// division). Accepts unreduced `a`; `b` may also be unreduced
    /// because `to_mont` reduces it first. The factors of `R` cancel:
    /// `a · (b·R) · R⁻¹ = a·b mod m`.
    #[must_use]
    pub fn mul_mod(&self, a: &U256, b: &U256) -> U256 {
        let bm = self.to_mont(b);
        self.mont_mul(a, &bm)
    }

    /// The 16-entry window table `[1, b, b², …, b¹⁵]` for a base already
    /// in Montgomery form.
    fn window_table(&self, base_mont: &U256) -> [U256; 16] {
        let mut table = [self.one; 16];
        table[1] = *base_mont;
        for j in 2..16 {
            table[j] = self.mont_mul(&table[j - 1], base_mont);
        }
        table
    }

    /// Fixed-window (w = 4) exponentiation, all in Montgomery form:
    /// `base^exp · R^(1-exp)`… — callers pass and receive Montgomery
    /// representations, so the result is simply `mont(x^exp)` when
    /// `base_mont = mont(x)`.
    #[must_use]
    pub(crate) fn pow_mont(&self, base_mont: &U256, exp: &U256) -> U256 {
        let nbits = exp.bits();
        if nbits == 0 {
            return self.one;
        }
        let table = self.window_table(base_mont);
        let top_window = (nbits - 1) / WINDOW_BITS;
        let mut acc = table[window_of(exp, top_window)];
        for w in (0..top_window).rev() {
            for _ in 0..WINDOW_BITS {
                acc = self.mont_mul(&acc, &acc);
            }
            let digit = window_of(exp, w);
            if digit != 0 {
                acc = self.mont_mul(&acc, &table[digit]);
            }
        }
        acc
    }

    /// `base^exp mod m` on ordinary representations (fixed-window w = 4).
    ///
    /// Matches [`U256::mod_pow`] for every odd modulus, including the
    /// `m = 1` edge (where everything reduces to 0).
    #[must_use]
    pub fn pow(&self, base: &U256, exp: &U256) -> U256 {
        let base_mont = self.to_mont(base);
        let out = self.pow_mont(&base_mont, exp);
        self.from_mont(&out)
    }
}

/// Extracts 4-bit window `w` (little-endian window order) of `exp`.
#[inline]
fn window_of(exp: &U256, w: usize) -> usize {
    let bit = w * WINDOW_BITS;
    ((exp.0[bit / 64] >> (bit % 64)) & 0xf) as usize
}

/// `base^exp mod m` choosing the fastest applicable backend: Montgomery
/// fixed-window for odd moduli, the Algorithm D reference otherwise.
///
/// # Panics
///
/// Panics if `m` is zero (as [`U256::mod_pow`]).
#[must_use]
pub fn mod_pow(base: &U256, exp: &U256, m: &U256) -> U256 {
    assert!(!m.is_zero(), "modulus must be non-zero");
    if m.is_even() {
        return base.mod_pow(exp, m);
    }
    MontCtx::new(*m).pow(base, exp)
}

/// Precomputed fixed-base exponentiation table: `table[i][j]` holds
/// `base^(j·16^i)` in Montgomery form, for `i ∈ [0, 64)`, `j ∈ [0, 16)`.
///
/// An exponentiation of the fixed base is then the product of one table
/// entry per 4-bit window of the exponent — at most 63 `mont_mul`s and
/// **no squarings**. Signing's `g^k` and verification's `g^s` become
/// table walks (~6× fewer multiplications than a windowed ladder).
#[derive(Debug, Clone)]
pub struct FixedBaseTable {
    table: Vec<[U256; 16]>,
}

impl FixedBaseTable {
    /// Precomputes the table (960 `mont_mul`s, done once per base).
    #[must_use]
    pub fn new(ctx: &MontCtx, base: &U256) -> Self {
        let mut table = Vec::with_capacity(WINDOWS);
        let mut cur = ctx.to_mont(base); // base^(16^i), advancing per row
        for _ in 0..WINDOWS {
            let row = ctx.window_table(&cur);
            cur = ctx.mont_mul(&row[15], &cur);
            table.push(row);
        }
        FixedBaseTable { table }
    }

    /// `base^exp` in Montgomery form.
    #[must_use]
    pub(crate) fn pow_mont(&self, ctx: &MontCtx, exp: &U256) -> U256 {
        let mut acc = ctx.one;
        for (i, row) in self.table.iter().enumerate() {
            let digit = window_of(exp, i);
            if digit != 0 {
                acc = ctx.mont_mul(&acc, &row[digit]);
            }
        }
        acc
    }

    /// `base^exp mod m` in ordinary representation.
    #[must_use]
    pub fn pow(&self, ctx: &MontCtx, exp: &U256) -> U256 {
        let out = self.pow_mont(ctx, exp);
        ctx.from_mont(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> U256 {
        U256::from_hex("8232159ce3aaabcb7e79630eda13a97087fda834f152bdac26761be39f039a2b")
    }

    #[test]
    fn redc_constant_is_inverse() {
        let ctx = MontCtx::new(p());
        assert_eq!(ctx.n0.wrapping_mul(p().0[0]), u64::MAX); // -1 mod 2^64
    }

    #[test]
    fn round_trip_through_mont_form() {
        let ctx = MontCtx::new(p());
        for v in [0u64, 1, 2, 0xdead_beef] {
            let x = U256::from_u64(v);
            assert_eq!(ctx.from_mont(&ctx.to_mont(&x)), x);
        }
    }

    #[test]
    fn mont_mul_matches_mul_mod() {
        let ctx = MontCtx::new(p());
        let a = U256::from_hex("1e2feb89414c343c1027c4d1c386bbc4cd613e30d8f16adf91b7584a2265b1f5");
        let b = U256::from_hex("35bf992dc9e9c616612e7696a6cecc1b78e510617311d8a3c2ce6f447ed4d57b");
        let am = ctx.to_mont(&a);
        let bm = ctx.to_mont(&b);
        let got = ctx.from_mont(&ctx.mont_mul(&am, &bm));
        assert_eq!(got, a.mul_mod(b, &p()));
        assert_eq!(ctx.mul_mod(&a, &b), a.mul_mod(b, &p()));
    }

    #[test]
    fn pow_matches_reference_vectors() {
        let ctx = MontCtx::new(p());
        let a = U256::from_hex("1e2feb89414c343c1027c4d1c386bbc4cd613e30d8f16adf91b7584a2265b1f5");
        let b = U256::from_hex("35bf992dc9e9c616612e7696a6cecc1b78e510617311d8a3c2ce6f447ed4d57b");
        let expected =
            U256::from_hex("430cf7ed87b2c96201a971d0467e2fc1a7a7484f5febacea11770107c72273fd");
        assert_eq!(ctx.pow(&a, &b), expected);
        assert_eq!(mod_pow(&a, &b, &p()), expected);
    }

    #[test]
    fn pow_edge_cases_match_reference() {
        let m = p();
        let ctx = MontCtx::new(m);
        assert_eq!(ctx.pow(&U256::from_u64(2), &U256::ZERO), U256::ONE);
        assert_eq!(ctx.pow(&U256::from_u64(2), &U256::ONE), U256::from_u64(2));
        assert_eq!(ctx.pow(&U256::ZERO, &U256::from_u64(5)), U256::ZERO);
        // m = 1: everything is 0, as in the reference.
        let one_ctx = MontCtx::new(U256::ONE);
        assert_eq!(
            one_ctx.pow(&U256::from_u64(7), &U256::ONE),
            U256::from_u64(7).mod_pow(&U256::ONE, &U256::ONE)
        );
    }

    #[test]
    fn even_modulus_dispatches_to_reference() {
        let m = U256::from_u64(1 << 20);
        let base = U256::from_u64(3);
        let exp = U256::from_u64(1000);
        assert_eq!(mod_pow(&base, &exp, &m), base.mod_pow(&exp, &m));
    }

    #[test]
    fn fixed_base_table_matches_windowed_pow() {
        let ctx = MontCtx::new(p());
        let g = U256::from_u64(4);
        let table = FixedBaseTable::new(&ctx, &g);
        for exp in [
            U256::ZERO,
            U256::ONE,
            U256::from_u64(16),
            U256::from_u64(0xffff_ffff_ffff_ffff),
            U256::from_hex("4b126898d50c2d32c5b4da3497f13bbd2a2472230f3747fa9dee557624212f5a"),
        ] {
            assert_eq!(table.pow(&ctx, &exp), g.mod_pow(&exp, &p()), "exp {exp}");
        }
    }

    #[test]
    fn unreduced_operand_is_handled_by_to_mont() {
        let ctx = MontCtx::new(p());
        // a ≥ m: to_mont must still land on a·R mod m.
        let a = U256([u64::MAX; 4]);
        assert_eq!(ctx.reduce(&a), a.rem(&p()));
    }

    #[test]
    #[should_panic(expected = "must be odd")]
    fn even_modulus_context_panics() {
        let _ = MontCtx::new(U256::from_u64(10));
    }
}
