//! Property-based equivalence: the Montgomery fast path vs the
//! Algorithm D reference, over random operands, random odd moduli and
//! the real Schnorr group moduli — plus batch-vs-individual Schnorr
//! verification including adversarial mixed batches.

use drams_crypto::bignum::U256;
use drams_crypto::montgomery::{self, FixedBaseTable, MontCtx};
use drams_crypto::schnorr::{batch_verify, group_p, group_q, Keypair, PublicKey, Signature};
use proptest::prelude::*;

fn odd(mut limbs: [u64; 4]) -> U256 {
    limbs[0] |= 1;
    U256(limbs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mont_mul_matches_mul_mod_for_group_p(a in prop::array::uniform4(any::<u64>()),
                                            b in prop::array::uniform4(any::<u64>())) {
        let m = group_p();
        let ctx = MontCtx::new(m);
        let a = U256(a).rem(&m);
        let b = U256(b).rem(&m);
        prop_assert_eq!(ctx.mul_mod(&a, &b), a.mul_mod(b, &m));
    }

    #[test]
    fn mont_mul_matches_mul_mod_for_group_q(a in prop::array::uniform4(any::<u64>()),
                                            b in prop::array::uniform4(any::<u64>())) {
        let m = group_q();
        let ctx = MontCtx::new(m);
        let a = U256(a).rem(&m);
        let b = U256(b).rem(&m);
        prop_assert_eq!(ctx.mul_mod(&a, &b), a.mul_mod(b, &m));
    }

    #[test]
    fn mont_mul_matches_mul_mod_for_random_odd_moduli(a in prop::array::uniform4(any::<u64>()),
                                                      b in prop::array::uniform4(any::<u64>()),
                                                      mlimbs in prop::array::uniform4(any::<u64>())) {
        let m = odd(mlimbs);
        prop_assume!(m > U256::ONE);
        let ctx = MontCtx::new(m);
        let a = U256(a).rem(&m);
        let b = U256(b).rem(&m);
        prop_assert_eq!(ctx.mul_mod(&a, &b), a.mul_mod(b, &m));
    }

    #[test]
    fn reduce_matches_rem_for_unreduced_inputs(a in prop::array::uniform4(any::<u64>()),
                                               mlimbs in prop::array::uniform4(any::<u64>())) {
        let m = odd(mlimbs);
        prop_assume!(!m.is_zero());
        let ctx = MontCtx::new(m);
        let a = U256(a);
        prop_assert_eq!(ctx.reduce(&a), a.rem(&m));
    }
}

proptest! {
    // mod_pow is ~100x the cost of a multiply; fewer cases keep the
    // suite fast while still sweeping full-width exponents.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mont_pow_matches_reference_for_group_p(base in prop::array::uniform4(any::<u64>()),
                                              exp in prop::array::uniform4(any::<u64>())) {
        let m = group_p();
        let base = U256(base);
        let exp = U256(exp);
        prop_assert_eq!(montgomery::mod_pow(&base, &exp, &m), base.mod_pow(&exp, &m));
    }

    #[test]
    fn mont_pow_matches_reference_for_group_q(base in prop::array::uniform4(any::<u64>()),
                                              exp in prop::array::uniform4(any::<u64>())) {
        let m = group_q();
        let base = U256(base);
        let exp = U256(exp);
        prop_assert_eq!(montgomery::mod_pow(&base, &exp, &m), base.mod_pow(&exp, &m));
    }

    #[test]
    fn mont_pow_matches_reference_for_random_odd_moduli(base in prop::array::uniform4(any::<u64>()),
                                                        exp in prop::array::uniform4(any::<u64>()),
                                                        mlimbs in prop::array::uniform4(any::<u64>())) {
        let m = odd(mlimbs);
        prop_assume!(!m.is_zero());
        let base = U256(base);
        let exp = U256(exp);
        prop_assert_eq!(montgomery::mod_pow(&base, &exp, &m), base.mod_pow(&exp, &m));
    }

    #[test]
    fn fixed_base_table_matches_reference(exp in prop::array::uniform4(any::<u64>())) {
        let m = group_p();
        let ctx = MontCtx::new(m);
        let g = U256::from_u64(4);
        let table = FixedBaseTable::new(&ctx, &g);
        let exp = U256(exp);
        prop_assert_eq!(table.pow(&ctx, &exp), g.mod_pow(&exp, &m));
    }
}

fn batch_of(n: usize, keys: usize) -> (Vec<Keypair>, Vec<Vec<u8>>, Vec<Signature>, Vec<usize>) {
    let kps: Vec<Keypair> = (0..keys)
        .map(|i| Keypair::from_seed(format!("batch-key-{i}").as_bytes()))
        .collect();
    let mut msgs = Vec::with_capacity(n);
    let mut sigs = Vec::with_capacity(n);
    let mut owners = Vec::with_capacity(n);
    for i in 0..n {
        let owner = i % keys;
        let msg = format!("batch message {i}").into_bytes();
        sigs.push(kps[owner].sign(&msg));
        msgs.push(msg);
        owners.push(owner);
    }
    (kps, msgs, sigs, owners)
}

fn items<'a>(
    kps: &[Keypair],
    msgs: &'a [Vec<u8>],
    sigs: &[Signature],
    owners: &[usize],
) -> Vec<(PublicKey, &'a [u8], Signature)> {
    owners
        .iter()
        .zip(msgs)
        .zip(sigs)
        .map(|((&o, m), &s)| (kps[o].public(), m.as_slice(), s))
        .collect()
}

#[test]
fn batch_verify_accepts_valid_batches() {
    for (n, keys) in [(1, 1), (4, 2), (17, 3), (64, 5)] {
        let (kps, msgs, sigs, owners) = batch_of(n, keys);
        let batch = items(&kps, &msgs, &sigs, &owners);
        assert!(batch_verify(&batch).is_ok(), "n={n} keys={keys}");
    }
}

#[test]
fn batch_verify_empty_is_ok() {
    assert!(batch_verify(&[]).is_ok());
}

#[test]
fn batch_verify_names_the_culprit() {
    let (kps, msgs, sigs, owners) = batch_of(16, 3);
    for bad in [0usize, 7, 15] {
        let mut sigs = sigs.clone();
        // Substitute a signature over a different message: well-formed
        // scalars, wrong statement.
        sigs[bad] = kps[owners[bad]].sign(b"a different message");
        let batch = items(&kps, &msgs, &sigs, &owners);
        let err = batch_verify(&batch).expect_err("tampered batch must fail");
        assert_eq!(err.culprit, bad);
        // …and equivalence with individual verification holds.
        for (i, (pk, m, s)) in batch.iter().enumerate() {
            assert_eq!(pk.verify(m, s).is_ok(), i != bad);
        }
    }
}

#[test]
fn batch_verify_reports_first_of_multiple_culprits() {
    let (kps, msgs, mut sigs, owners) = batch_of(12, 2);
    sigs[3] = kps[owners[3]].sign(b"forged 3");
    sigs[9] = kps[owners[9]].sign(b"forged 9");
    let batch = items(&kps, &msgs, &sigs, &owners);
    assert_eq!(batch_verify(&batch).unwrap_err().culprit, 3);
}

#[test]
fn batch_verify_rejects_swapped_key() {
    let (kps, msgs, sigs, mut owners) = batch_of(8, 2);
    // Attribute signature 5 to the wrong key.
    owners[5] ^= 1;
    let batch = items(&kps, &msgs, &sigs, &owners);
    assert_eq!(batch_verify(&batch).unwrap_err().culprit, 5);
}

#[test]
fn batch_verify_matches_individual_on_bitflips() {
    // Equivalence on adversarial mixed batches: every single-bit flip of
    // one signature must make batch and individual verification agree.
    let (kps, msgs, sigs, owners) = batch_of(4, 2);
    let base_items = items(&kps, &msgs, &sigs, &owners);
    for byte in [0usize, 31, 32, 63] {
        let mut bytes = sigs[2].to_bytes();
        bytes[byte] ^= 0x01;
        let Ok(tampered) = Signature::from_bytes(bytes) else {
            continue; // out-of-range: rejected before any batch math
        };
        let mut batch = base_items.clone();
        batch[2].2 = tampered;
        let individual_ok = batch.iter().all(|(pk, m, s)| pk.verify(m, s).is_ok());
        let batch_result = batch_verify(&batch);
        assert_eq!(batch_result.is_ok(), individual_ok, "byte {byte}");
        if let Err(e) = batch_result {
            assert_eq!(e.culprit, 2);
        }
    }
}

#[test]
fn batch_verify_handles_duplicate_entries() {
    let (kps, msgs, sigs, owners) = batch_of(3, 1);
    let mut batch = items(&kps, &msgs, &sigs, &owners);
    let dup = batch[1];
    batch.push(dup);
    assert!(batch_verify(&batch).is_ok());
}
