//! Fixed-vector determinism regression.
//!
//! The vectors below were produced by the pre-Montgomery implementation
//! (Algorithm D `mod_pow`, buffered SHA-256). Signatures and digests are
//! consensus-critical: any arithmetic or hashing change that alters a
//! single byte here would fork the chain (determinism invariant #4), so
//! these bytes are pinned forever.

use drams_crypto::schnorr::Keypair;
use drams_crypto::sha256::Digest;

const MESSAGE: &[u8] = b"drams fixed vector message";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn public_keys_are_pinned() {
    let cases = [
        (
            b"vector-key-1".as_slice(),
            "7396a3ed0c6a90db73be83b1db159a73966fedcd4273c366c44750040c493f12",
        ),
        (
            b"vector-key-2",
            "590d6b5f441f33d1b955ffe2c0af0cb554ff587a97299cc5ca8ea7ec5b163f9a",
        ),
        (
            b"li-1",
            "366417cfe9a283612604d81c2ed68d80cb81732180eb725c57a4c90e2c225cfc",
        ),
    ];
    for (seed, expected) in cases {
        let kp = Keypair::from_seed(seed);
        assert_eq!(
            hex(&kp.public().to_bytes()),
            expected,
            "public key drifted for seed {:?}",
            String::from_utf8_lossy(seed)
        );
    }
}

#[test]
fn signatures_are_pinned_byte_for_byte() {
    let cases = [
        (
            b"vector-key-1".as_slice(),
            "01a0600c86fad209c7f88453e577614a7ac27804d69476d948cc9a173f38e280\
             11c58bb2df5de573c68d56a7608754c3a2750d7f8f44fef3680917876b4e52f9",
        ),
        (
            b"vector-key-2",
            "0e83fd729fa41c19cc454df9ca3701a29a5e55453d71f5718c6308c88836ee2f\
             2e4633179d897368b5298d327385150c107562faa5cc9b827b6f5404be1ba534",
        ),
        (
            b"li-1",
            "0405193680f518e21cd57ab60fda35751e1499950517a0ae40d36bc030b52650\
             0fd179bf7d5cd3c0c6fd867e26ecc93c50c5f21fc56112bf60b2cf2214c974bb",
        ),
    ];
    for (seed, expected) in cases {
        let kp = Keypair::from_seed(seed);
        let sig = kp.sign(MESSAGE);
        assert_eq!(
            hex(&sig.to_bytes()),
            expected.replace(char::is_whitespace, ""),
            "signature drifted for seed {:?}",
            String::from_utf8_lossy(seed)
        );
        // And the three signing paths agree bit-for-bit.
        assert_eq!(sig, kp.secret().sign(MESSAGE));
        assert_eq!(sig, kp.secret().sign_reference(MESSAGE));
        kp.public().verify(MESSAGE, &sig).unwrap();
        kp.public().verify_reference(MESSAGE, &sig).unwrap();
    }
}

#[test]
fn digests_are_pinned() {
    assert_eq!(
        Digest::of(b"").to_hex(),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    );
    assert_eq!(
        Digest::of(MESSAGE).to_hex(),
        "08b4fd3b550575cbafb9526a26abfadfaa3a58fc68d18f38371e9ad33e7c1195"
    );
    let mut long = Vec::new();
    for i in 0..1000u32 {
        long.extend_from_slice(&i.to_be_bytes());
    }
    assert_eq!(
        Digest::of(&long).to_hex(),
        "86c114b302158bb25d711fd1d2482c1adf42caf6f972a0492e78436e2733b590"
    );
}

/// Sealed boxes go on chain and derived keys open them: however the HMAC
/// and AEAD are implemented, they must reproduce these bytes exactly.
#[test]
fn seal_output_is_pinned() {
    use drams_crypto::aead::{open, seal, SymmetricKey};
    let key = SymmetricKey::from_bytes([0x42; 32]);
    let sealed = seal(&key, *b"fixed-nonce!", b"fixed aad", MESSAGE);
    assert_eq!(hex(&sealed.nonce), "66697865642d6e6f6e636521");
    assert_eq!(
        hex(&sealed.ciphertext),
        "e9081e470879f27fb19ebf1af63c87edfc9ee416d8a218d85b78"
    );
    assert_eq!(
        sealed.tag.to_hex(),
        "9f01cea2eb272ff6beb26af4ee33eafe49cb45f24a8d7a6bdf698689cf9e276f"
    );
    assert_eq!(open(&key, b"fixed aad", &sealed).unwrap(), MESSAGE);
}

#[test]
fn derived_keys_are_pinned() {
    use drams_crypto::aead::SymmetricKey;
    use drams_crypto::hmac::derive_key;
    let short = "64f24e22366a4deef42641c99dc1fc63928098fac21e97b8e62b6ae24692cbbf";
    assert_eq!(hex(&derive_key(&[0x42; 32], "drams.fixed.label")), short);
    // A master longer than the block size is hashed first.
    assert_eq!(
        hex(&derive_key(&[0x42; 100], "drams.fixed.label")),
        "e371d7185f991d1e01737daed9455ab2318f09f1bbd6903e4da05fdc3cc365d9"
    );
    let sub = SymmetricKey::from_bytes([0x42; 32]).derive("drams.fixed.label");
    assert_eq!(hex(sub.as_bytes()), short);
}
