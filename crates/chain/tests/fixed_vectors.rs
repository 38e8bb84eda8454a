//! Fixed-vector determinism regression for the chain layer.
//!
//! Transaction ids and block hashes are derived from canonical encodings
//! and Schnorr signatures; the vectors below were produced by the
//! pre-Montgomery implementation and must never drift (consensus
//! invariant: every node derives identical ids).

use drams_chain::block::Block;
use drams_chain::tx::Transaction;
use drams_crypto::schnorr::Keypair;
use drams_crypto::sha256::Digest;

#[test]
fn transaction_id_and_block_hash_are_pinned() {
    let kp = Keypair::from_seed(b"vector-key-1");
    let tx = Transaction::new_signed(
        &kp,
        3,
        "drams-monitor",
        "store_log",
        b"fixed payload".to_vec(),
    );
    assert_eq!(
        tx.id().to_hex(),
        "9a54fe9d12f59253724935474cb62e3c7787dc8c0ec8db0c737ac719c0ae8927"
    );
    tx.verify_signature().unwrap();

    let block = Block::mine(Digest::ZERO, 1, vec![tx], 1234, 4);
    assert_eq!(
        block.header.tx_root.to_hex(),
        "9a54fe9d12f59253724935474cb62e3c7787dc8c0ec8db0c737ac719c0ae8927"
    );
    assert_eq!(
        block.hash().to_hex(),
        "03f41fded90d48ce4ec72722920ffe459fd277a0bee279ca912c534fc37598e7"
    );
    block.verify_signatures().unwrap();
}

#[test]
fn batched_block_verification_matches_per_tx() {
    let kp1 = Keypair::from_seed(b"vector-key-1");
    let kp2 = Keypair::from_seed(b"vector-key-2");
    let mut txs: Vec<Transaction> = (0..6)
        .map(|i| {
            let kp = if i % 2 == 0 { &kp1 } else { &kp2 };
            Transaction::new_signed(kp, i, "drams-monitor", "store_log", vec![i as u8; 16])
        })
        .collect();
    let block = Block::mine(Digest::ZERO, 1, txs.clone(), 0, 0);
    block.verify_signatures().unwrap();

    // Tamper one payload: both paths must reject.
    let mut body = txs[3].clone().into_body();
    body.payload = b"tampered".to_vec();
    txs[3] = Transaction::from_body(body);
    let bad = Block::mine(Digest::ZERO, 1, txs, 0, 0);
    assert!(bad.verify_signatures().is_err());
    assert!(bad.transactions[3].verify_signature().is_err());
    assert!(bad.transactions[2].verify_signature().is_ok());
}
