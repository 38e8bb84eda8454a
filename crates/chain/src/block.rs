//! Blocks and proof-of-work mining.

use crate::error::ChainError;
use crate::tx::Transaction;
use drams_crypto::codec::{decode_seq, Decode, Encode, Reader, Writer};
use drams_crypto::merkle::MerkleTree;
use drams_crypto::sha256::Digest;
use serde::{Deserialize, Serialize};

/// A block hash.
pub type BlockHash = Digest;

/// Block header: everything that is hashed for proof-of-work.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockHeader {
    /// Hash of the parent block ([`Digest::ZERO`] for genesis).
    pub parent: BlockHash,
    /// Height (genesis = 0).
    pub height: u64,
    /// Merkle root over the transaction ids.
    pub tx_root: Digest,
    /// Millisecond timestamp (simulation or wall clock).
    pub timestamp_ms: u64,
    /// Required leading zero bits of the block hash — the tunable PoW
    /// parameter of the paper's private-chain design (§III).
    pub difficulty_bits: u32,
    /// Proof-of-work nonce.
    pub nonce: u64,
}

impl BlockHeader {
    /// The block hash (SHA-256 of the canonical header encoding).
    #[must_use]
    pub fn hash(&self) -> BlockHash {
        self.canonical_digest()
    }

    /// True when the hash meets the declared difficulty.
    #[must_use]
    pub fn meets_difficulty(&self) -> bool {
        self.hash().leading_zero_bits() >= self.difficulty_bits
    }
}

impl Encode for BlockHeader {
    fn encode(&self, w: &mut Writer) {
        self.parent.encode(w);
        w.put_u64(self.height);
        self.tx_root.encode(w);
        w.put_u64(self.timestamp_ms);
        w.put_u32(self.difficulty_bits);
        w.put_u64(self.nonce);
    }
}

impl Decode for BlockHeader {
    fn decode(r: &mut Reader<'_>) -> Result<Self, drams_crypto::CryptoError> {
        Ok(BlockHeader {
            parent: Digest::decode(r)?,
            height: r.get_u64()?,
            tx_root: Digest::decode(r)?,
            timestamp_ms: r.get_u64()?,
            difficulty_bits: r.get_u32()?,
            nonce: r.get_u64()?,
        })
    }
}

/// A full block: header plus transaction body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Block {
    /// The mined header.
    pub header: BlockHeader,
    /// Included transactions, in execution order.
    pub transactions: Vec<Transaction>,
}

impl Block {
    /// Computes the Merkle root over a transaction list: the cached
    /// transaction ids are the leaf hashes of one
    /// [`MerkleTree::from_leaf_hashes`] build.
    #[must_use]
    pub fn compute_tx_root(transactions: &[Transaction]) -> Digest {
        MerkleTree::from_leaf_hashes(transactions.iter().map(Transaction::id).collect()).root()
    }

    /// Assembles and mines a block: iterates the nonce until the header
    /// hash has `difficulty_bits` leading zeros. This performs *real*
    /// hashing work — the log-size and PoW experiments (E1/E2) measure it.
    #[must_use]
    pub fn mine(
        parent: BlockHash,
        height: u64,
        transactions: Vec<Transaction>,
        timestamp_ms: u64,
        difficulty_bits: u32,
    ) -> Block {
        let tx_root = Self::compute_tx_root(&transactions);
        let mut header = BlockHeader {
            parent,
            height,
            tx_root,
            timestamp_ms,
            difficulty_bits,
            nonce: 0,
        };
        while !header.meets_difficulty() {
            header.nonce = header.nonce.wrapping_add(1);
        }
        Block {
            header,
            transactions,
        }
    }

    /// The block hash.
    #[must_use]
    pub fn hash(&self) -> BlockHash {
        self.header.hash()
    }

    /// Structural self-validation: PoW and Merkle root. Chain-contextual
    /// checks (parent, height, expected difficulty) live in
    /// [`crate::chain::Blockchain::import`].
    ///
    /// # Errors
    ///
    /// [`ChainError::InsufficientWork`] or [`ChainError::BadTxRoot`].
    pub fn validate_standalone(&self) -> Result<(), ChainError> {
        if !self.header.meets_difficulty() {
            return Err(ChainError::InsufficientWork);
        }
        if Self::compute_tx_root(&self.transactions) != self.header.tx_root {
            return Err(ChainError::BadTxRoot);
        }
        Ok(())
    }

    /// Verifies every transaction signature in one batched pass.
    ///
    /// One [`drams_crypto::schnorr::batch_verify`] over the whole block,
    /// which builds a fixed-base table once for each signer with four or
    /// more transactions in it — blocks are dominated by a handful of
    /// Logging Interface identities, so on this, the hot import path,
    /// almost every verification is two table walks. Exactly equivalent
    /// to verifying each transaction individually.
    ///
    /// # Errors
    ///
    /// [`ChainError::BadSignature`] if any transaction fails.
    pub fn verify_signatures(&self) -> Result<(), ChainError> {
        let messages: Vec<Vec<u8>> = self
            .transactions
            .iter()
            .map(Transaction::signing_bytes)
            .collect();
        let batch: Vec<_> = self
            .transactions
            .iter()
            .zip(&messages)
            .map(|(tx, msg)| (tx.sender, msg.as_slice(), tx.signature))
            .collect();
        drams_crypto::schnorr::batch_verify(&batch).map_err(|_| ChainError::BadSignature)
    }

    /// Total serialized size in bytes.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        self.to_canonical_bytes().len()
    }
}

impl Encode for Block {
    fn encode(&self, w: &mut Writer) {
        self.header.encode(w);
        w.put_varint(self.transactions.len() as u64);
        for tx in &self.transactions {
            tx.encode(w);
        }
    }
}

impl Decode for Block {
    fn decode(r: &mut Reader<'_>) -> Result<Self, drams_crypto::CryptoError> {
        let header = BlockHeader::decode(r)?;
        let transactions = decode_seq(r)?;
        Ok(Block {
            header,
            transactions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drams_crypto::schnorr::Keypair;

    fn sample_txs(n: usize) -> Vec<Transaction> {
        let kp = Keypair::from_seed(b"block-tests");
        (0..n)
            .map(|i| Transaction::new_signed(&kp, i as u64, "monitor", "store", vec![i as u8; 32]))
            .collect()
    }

    #[test]
    fn mining_meets_difficulty() {
        let block = Block::mine(Digest::ZERO, 0, sample_txs(3), 1000, 8);
        assert!(block.header.meets_difficulty());
        assert!(block.hash().leading_zero_bits() >= 8);
        block.validate_standalone().unwrap();
    }

    #[test]
    fn difficulty_zero_accepts_first_nonce() {
        let block = Block::mine(Digest::ZERO, 0, vec![], 0, 0);
        assert_eq!(block.header.nonce, 0);
    }

    #[test]
    fn tampered_tx_breaks_root() {
        let mut block = Block::mine(Digest::ZERO, 0, sample_txs(2), 0, 4);
        // The ids are cached by now: the edit must not keep the stale one.
        let mut body = block.transactions[0].clone().into_body();
        body.payload = b"tampered".to_vec();
        block.transactions[0] = Transaction::from_body(body);
        assert_eq!(block.validate_standalone(), Err(ChainError::BadTxRoot));
    }

    #[test]
    fn tampered_header_breaks_pow_with_high_probability() {
        let mut block = Block::mine(Digest::ZERO, 0, vec![], 0, 12);
        block.header.timestamp_ms += 1;
        // After changing the timestamp the old nonce almost surely fails a
        // 12-bit target (probability 2^-12 to still pass).
        assert_eq!(
            block.validate_standalone(),
            Err(ChainError::InsufficientWork)
        );
    }

    #[test]
    fn empty_block_root_is_empty_merkle_root() {
        let block = Block::mine(Digest::ZERO, 0, vec![], 0, 0);
        assert_eq!(block.header.tx_root, drams_crypto::merkle::empty_root());
    }

    #[test]
    fn codec_round_trip() {
        let block = Block::mine(Digest::of(b"parent"), 7, sample_txs(2), 42, 4);
        let bytes = block.to_canonical_bytes();
        let back = Block::from_canonical_bytes(&bytes).unwrap();
        assert_eq!(back, block);
        assert_eq!(back.hash(), block.hash());
    }

    #[test]
    fn wire_len_grows_with_payloads() {
        let small = Block::mine(Digest::ZERO, 0, sample_txs(1), 0, 0);
        let big = Block::mine(Digest::ZERO, 0, sample_txs(8), 0, 0);
        assert!(big.wire_len() > small.wire_len());
    }

    #[test]
    fn wide_block_root_matches_the_merkle_tree_and_a_forgery_is_caught() {
        // Widths around 32, 64 and 128 leaves, with and without odd promotions.
        for n in [0usize, 1, 2, 31, 32, 33, 64, 69, 129] {
            let txs = sample_txs(n);
            let ids: Vec<Digest> = txs.iter().map(Transaction::id).collect();
            assert_eq!(
                Block::compute_tx_root(&txs),
                MerkleTree::from_leaf_hashes(ids).root(),
                "n={n}"
            );
        }
        let block = Block::mine(Digest::ZERO, 0, sample_txs(69), 0, 0);
        assert_eq!(block.verify_signatures(), Ok(()));
        let mut bad = block;
        let mut body = bad.transactions[40].clone().into_body();
        body.payload = b"forged".to_vec(); // signature no longer covers payload
        bad.transactions[40] = Transaction::from_body(body);
        assert_eq!(bad.verify_signatures(), Err(ChainError::BadSignature));
    }
}
