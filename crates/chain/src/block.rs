//! Blocks and proof-of-work mining.

use crate::error::ChainError;
use crate::tx::Transaction;
use drams_crypto::codec::{decode_seq, Decode, Encode, Reader, Writer};
use drams_crypto::merkle::{self, MerkleTree};
use drams_crypto::sha256::Digest;
use drams_faas::par;
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

/// Minimum transaction count before block hashing/verification fans out
/// across [`drams_faas::par`] workers: below this, thread-spawn overhead
/// exceeds the hash/exponentiation work being split.
const PAR_MIN_TXS: usize = 32;

impl Block {
    /// Computes the Merkle root over a transaction list.
    ///
    /// Leaf hashing (one SHA-256 of each transaction's canonical bytes)
    /// dominates and is pure per-transaction work, so wide blocks fan it
    /// out across [`drams_faas::par`] workers; the tree is then assembled
    /// level by level with [`drams_crypto::merkle::hash_level_chunk`]
    /// over pair-aligned chunks. Results merge in submission order, so
    /// the root is identical at any worker count.
    #[must_use]
    pub fn compute_tx_root(transactions: &[Transaction]) -> Digest {
        let mut level: Vec<Digest> = par::map(transactions, PAR_MIN_TXS, Transaction::id);
        if level.len() <= 1 {
            return MerkleTree::from_leaf_hashes(level).root();
        }
        while level.len() > 1 {
            let pair_count = level.len() / 2;
            let (paired, rest) = level.split_at(pair_count * 2);
            let mut next: Vec<Digest> = if pair_count >= PAR_MIN_TXS {
                // One pair-aligned chunk per worker; the trailing odd
                // node is promoted unchanged as in the serial builder.
                let ranges = par::chunk_ranges(pair_count, par::workers());
                let chunks: Vec<&[Digest]> = ranges
                    .iter()
                    .map(|r| &paired[r.start * 2..r.end * 2])
                    .collect();
                par::map(&chunks, 2, |c| merkle::hash_level_chunk(c))
                    .into_iter()
                    .flatten()
                    .collect()
            } else {
                merkle::hash_level_chunk(paired)
            };
            next.extend_from_slice(rest);
            level = next;
        }
        level[0]
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
    /// Uses [`drams_crypto::schnorr::batch_verify`], which builds a
    /// fixed-base table for each signer with four or more transactions
    /// in the batch — blocks are dominated by a handful of Logging
    /// Interface identities, so on this, the hot import path, almost
    /// every verification is two table walks. Wide blocks split the
    /// batch into one contiguous chunk per [`drams_faas::par`] worker,
    /// verify chunks concurrently, and merge verdicts with
    /// [`drams_crypto::schnorr::merge_chunk_verdicts`] — exactly
    /// equivalent to verifying each transaction individually, at any
    /// worker count.
    ///
    /// # Errors
    ///
    /// [`ChainError::BadSignature`] if any transaction fails.
    pub fn verify_signatures(&self) -> Result<(), ChainError> {
        if self.transactions.is_empty() {
            return Ok(());
        }
        let messages: Vec<Vec<u8>> =
            par::map(&self.transactions, PAR_MIN_TXS, Transaction::signing_bytes);
        let batch: Vec<_> = self
            .transactions
            .iter()
            .zip(&messages)
            .map(|(tx, msg)| (tx.sender, msg.as_slice(), tx.signature))
            .collect();
        if batch.len() < PAR_MIN_TXS {
            return drams_crypto::schnorr::batch_verify(&batch)
                .map_err(|_| ChainError::BadSignature);
        }
        let ranges = par::chunk_ranges(batch.len(), par::workers());
        let chunks: Vec<(usize, &[_])> = ranges
            .iter()
            .map(|r| (r.start, &batch[r.start..r.end]))
            .collect();
        let verdicts = par::map(&chunks, 2, |&(start, chunk)| {
            (start, drams_crypto::schnorr::batch_verify(chunk))
        });
        drams_crypto::schnorr::merge_chunk_verdicts(verdicts).map_err(|_| ChainError::BadSignature)
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
    fn tx_root_and_verification_are_worker_count_invisible() {
        // Wide enough to cross PAR_MIN_TXS so the parallel paths engage.
        let txs = sample_txs(PAR_MIN_TXS * 2 + 5);
        let mut bad = txs.clone();
        let mut body = bad[40].clone().into_body();
        body.payload = b"forged".to_vec(); // signature no longer covers payload
        bad[40] = Transaction::from_body(body);
        let saved = par::workers();
        let mut roots = Vec::new();
        let mut verdicts = Vec::new();
        for w in [1usize, 2, 4, 8] {
            par::set_workers(w);
            roots.push(Block::compute_tx_root(&txs));
            let block = Block {
                header: BlockHeader {
                    parent: Digest::ZERO,
                    height: 0,
                    tx_root: Block::compute_tx_root(&txs),
                    timestamp_ms: 0,
                    difficulty_bits: 0,
                    nonce: 0,
                },
                transactions: txs.clone(),
            };
            verdicts.push(block.verify_signatures().is_ok());
            let bad_block = Block {
                transactions: bad.clone(),
                ..block
            };
            assert_eq!(
                bad_block.verify_signatures(),
                Err(ChainError::BadSignature),
                "workers={w}"
            );
        }
        par::set_workers(saved);
        assert!(roots.windows(2).all(|p| p[0] == p[1]));
        assert!(verdicts.iter().all(|&v| v));
    }
}
