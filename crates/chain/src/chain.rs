//! The blockchain store: validation, fork choice and difficulty retarget.

use crate::block::{Block, BlockHash};
use crate::error::ChainError;
use crate::tx::TxId;
use drams_crypto::sha256::Digest;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// Tunable parameters of the private chain — the paper's §III observes
/// that on a private deployment "all PoW parameters can be dynamically
/// tuned according to the needs".
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainConfig {
    /// Difficulty (leading zero bits) for the early chain.
    pub initial_difficulty_bits: u32,
    /// Blocks between difficulty retargets; 0 disables retargeting.
    pub retarget_interval: u64,
    /// Desired inter-block time used by the retarget rule.
    pub target_block_ms: u64,
    /// Maximum transactions per block.
    pub max_block_txs: usize,
    /// Verify transaction signatures at import (disable only in
    /// micro-benchmarks that isolate hashing cost).
    pub verify_signatures: bool,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            initial_difficulty_bits: 8,
            retarget_interval: 16,
            target_block_ms: 1_000,
            max_block_txs: 256,
            verify_signatures: true,
        }
    }
}

/// How an imported block changed the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImportOutcome {
    /// The block extended the current tip.
    ExtendedTip,
    /// The block landed on a side chain; the tip is unchanged.
    SideChain,
    /// The block made a side chain the heaviest: `depth` main-chain blocks
    /// were replaced.
    Reorg {
        /// Number of blocks abandoned from the old main chain.
        depth: u64,
    },
    /// The block was already known.
    AlreadyKnown,
}

#[derive(Debug, Clone)]
struct StoredBlock {
    block: Block,
    total_work: u128,
    /// Stored blocks naming this one as parent.
    children: usize,
}

/// An in-memory blockchain with longest-(heaviest-)chain fork choice.
#[derive(Debug)]
pub struct Blockchain {
    config: ChainConfig,
    blocks: HashMap<BlockHash, StoredBlock>,
    genesis: BlockHash,
    tip: BlockHash,
    /// Blocks with two or more children, kept by [`Blockchain::import`].
    fork_parents: BTreeSet<BlockHash>,
}

impl Blockchain {
    /// Creates a chain with a deterministic genesis block.
    #[must_use]
    pub fn new(config: ChainConfig) -> Self {
        // Genesis carries no work (difficulty 0) and a fixed timestamp, so
        // every node derives the identical genesis hash.
        let genesis_block = Block::mine(Digest::ZERO, 0, Vec::new(), 0, 0);
        let genesis = genesis_block.hash();
        let mut blocks = HashMap::new();
        blocks.insert(
            genesis,
            StoredBlock {
                block: genesis_block,
                total_work: 0,
                children: 0,
            },
        );
        Blockchain {
            config,
            blocks,
            genesis,
            tip: genesis,
            fork_parents: BTreeSet::new(),
        }
    }

    /// The chain configuration.
    #[must_use]
    pub fn config(&self) -> &ChainConfig {
        &self.config
    }

    /// The genesis hash.
    #[must_use]
    pub fn genesis_hash(&self) -> BlockHash {
        self.genesis
    }

    /// The current tip hash.
    #[must_use]
    pub fn tip_hash(&self) -> BlockHash {
        self.tip
    }

    /// The current tip header.
    #[must_use]
    pub fn tip_header(&self) -> &crate::block::BlockHeader {
        &self.blocks[&self.tip].block.header
    }

    /// Looks a block up by hash.
    #[must_use]
    pub fn block(&self, hash: &BlockHash) -> Option<&Block> {
        self.blocks.get(hash).map(|s| &s.block)
    }

    /// Total number of blocks stored (including side chains).
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Every fork in the block tree — main chain and side chains — as
    /// `(parent, child height, sibling count)` in parent-hash order. This
    /// is the auditor's view of the stale siblings that
    /// [`Blockchain::main_chain_hashes`] deliberately omits, read from an
    /// index [`Blockchain::import`] maintains: O(forks), and free on a
    /// chain that is a pure line.
    pub fn fork_points(&self) -> impl Iterator<Item = (BlockHash, u64, usize)> + '_ {
        self.fork_parents.iter().map(|parent| {
            let stored = &self.blocks[parent];
            (*parent, stored.block.header.height + 1, stored.children)
        })
    }

    /// The fork sweep [`Blockchain::fork_points`] replaced — every stored
    /// header sorted by (height, hash) and grouped by parent — kept as the
    /// oracle its index is tested against.
    #[cfg(test)]
    fn fork_points_by_full_scan(&self) -> Vec<(BlockHash, u64, usize)> {
        let mut headers: Vec<&crate::block::BlockHeader> =
            self.blocks.values().map(|s| &s.block.header).collect();
        headers.sort_by_key(|h| (h.height, h.hash()));
        let mut children: std::collections::BTreeMap<BlockHash, Vec<u64>> = Default::default();
        for header in headers {
            children
                .entry(header.parent)
                .or_default()
                .push(header.height);
        }
        children
            .into_iter()
            .filter(|(_, heights)| heights.len() >= 2)
            .map(|(parent, heights)| (parent, heights[0], heights.len()))
            .collect()
    }

    /// Always false — a chain has at least its genesis.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The difficulty required of a child of `parent`.
    ///
    /// Retarget rule: every `retarget_interval` blocks, compare the actual
    /// elapsed time over the last window with the expected one; adjust by
    /// ±1 bit when off by more than 2×, clamped to `[1, 40]`.
    ///
    /// # Errors
    ///
    /// [`ChainError::UnknownParent`] when `parent` is not stored.
    pub fn required_difficulty(&self, parent: &BlockHash) -> Result<u32, ChainError> {
        let stored = self.blocks.get(parent).ok_or(ChainError::UnknownParent)?;
        let parent_header = &stored.block.header;
        if parent_header.height == 0 {
            return Ok(self.config.initial_difficulty_bits);
        }
        let child_height = parent_header.height + 1;
        let interval = self.config.retarget_interval;
        if interval == 0 || child_height % interval != 0 {
            return Ok(parent_header.difficulty_bits);
        }
        // Walk back `interval - 1` blocks from the parent to find the
        // window start.
        let mut cursor = *parent;
        for _ in 0..interval - 1 {
            cursor = self.blocks[&cursor].block.header.parent;
        }
        let window_start = &self.blocks[&cursor].block.header;
        let actual = parent_header
            .timestamp_ms
            .saturating_sub(window_start.timestamp_ms);
        let expected = interval.saturating_mul(self.config.target_block_ms);
        let current = parent_header.difficulty_bits;
        let adjusted = if actual < expected / 2 {
            current + 1
        } else if actual > expected * 2 {
            current.saturating_sub(1)
        } else {
            current
        };
        Ok(adjusted.clamp(1, 40))
    }

    /// Validates and imports a block.
    ///
    /// # Errors
    ///
    /// Any [`ChainError`] from structural or contextual validation.
    pub fn import(&mut self, block: Block) -> Result<ImportOutcome, ChainError> {
        let hash = block.hash();
        if self.blocks.contains_key(&hash) {
            return Ok(ImportOutcome::AlreadyKnown);
        }
        let parent_work;
        let parent_height;
        {
            let parent = self
                .blocks
                .get(&block.header.parent)
                .ok_or(ChainError::UnknownParent)?;
            parent_work = parent.total_work;
            parent_height = parent.block.header.height;
        }
        if block.header.height != parent_height + 1 {
            return Err(ChainError::WrongHeight);
        }
        if block.transactions.len() > self.config.max_block_txs {
            return Err(ChainError::BlockTooLarge {
                txs: block.transactions.len(),
                max: self.config.max_block_txs,
            });
        }
        let required = self.required_difficulty(&block.header.parent)?;
        if block.header.difficulty_bits != required {
            return Err(ChainError::WrongDifficulty {
                declared: block.header.difficulty_bits,
                required,
            });
        }
        block.validate_standalone()?;
        if self.config.verify_signatures {
            // One batched pass over the whole block (shared per-key
            // tables) instead of a per-transaction verification loop.
            block.verify_signatures()?;
        }

        let total_work = parent_work + (1u128 << block.header.difficulty_bits.min(127));
        let extends_tip = block.header.parent == self.tip;
        let old_tip = self.tip;
        let parent = self
            .blocks
            .get_mut(&block.header.parent)
            .expect("parent looked up above");
        parent.children += 1;
        if parent.children == 2 {
            self.fork_parents.insert(block.header.parent);
        }
        let stored = StoredBlock {
            block,
            total_work,
            children: 0,
        };
        self.blocks.insert(hash, stored);
        if total_work > self.blocks[&self.tip].total_work {
            self.tip = hash;
            if extends_tip {
                Ok(ImportOutcome::ExtendedTip)
            } else {
                let depth = self.reorg_depth(&old_tip, &hash);
                Ok(ImportOutcome::Reorg { depth })
            }
        } else {
            Ok(ImportOutcome::SideChain)
        }
    }

    /// How many blocks of the old main chain were abandoned when `new_tip`
    /// took over from `old_tip`.
    fn reorg_depth(&self, old_tip: &BlockHash, new_tip: &BlockHash) -> u64 {
        // Find the common ancestor by walking both branches back to equal
        // heights, then in lockstep.
        let mut a = *old_tip;
        let mut b = *new_tip;
        let height = |h: &BlockHash| self.blocks[h].block.header.height;
        while height(&a) > height(&b) {
            a = self.blocks[&a].block.header.parent;
        }
        while height(&b) > height(&a) {
            b = self.blocks[&b].block.header.parent;
        }
        let mut depth = 0;
        while a != b {
            a = self.blocks[&a].block.header.parent;
            b = self.blocks[&b].block.header.parent;
            depth += 1;
        }
        // Abandoned blocks: from the ancestor to the old tip.
        height(old_tip) - height(&a) + if depth > 0 { 0 } else { 0 }
    }

    /// Hashes of the main chain, genesis first.
    #[must_use]
    pub fn main_chain_hashes(&self) -> Vec<BlockHash> {
        let mut out = Vec::new();
        let mut cursor = self.tip;
        loop {
            out.push(cursor);
            if cursor == self.genesis {
                break;
            }
            cursor = self.blocks[&cursor].block.header.parent;
        }
        out.reverse();
        out
    }

    /// The main-chain block at `height`, if any.
    #[must_use]
    pub fn block_at_height(&self, height: u64) -> Option<&Block> {
        let tip_height = self.tip_header().height;
        if height > tip_height {
            return None;
        }
        let mut cursor = self.tip;
        for _ in 0..tip_height - height {
            cursor = self.blocks[&cursor].block.header.parent;
        }
        Some(&self.blocks[&cursor].block)
    }

    /// Finds a transaction on the main chain, returning `(block hash,
    /// height)`.
    #[must_use]
    pub fn find_tx(&self, tx_id: &TxId) -> Option<(BlockHash, u64)> {
        let mut cursor = self.tip;
        loop {
            let stored = &self.blocks[&cursor];
            if stored.block.transactions.iter().any(|tx| tx.id() == *tx_id) {
                return Some((cursor, stored.block.header.height));
            }
            if cursor == self.genesis {
                return None;
            }
            cursor = stored.block.header.parent;
        }
    }

    /// Confirmations of the block containing `tx_id` (tip block = 1).
    #[must_use]
    pub fn confirmations(&self, tx_id: &TxId) -> Option<u64> {
        let (_, height) = self.find_tx(tx_id)?;
        Some(self.tip_header().height - height + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::Transaction;
    use drams_crypto::schnorr::Keypair;

    fn config(bits: u32) -> ChainConfig {
        ChainConfig {
            initial_difficulty_bits: bits,
            retarget_interval: 4,
            target_block_ms: 1_000,
            max_block_txs: 8,
            verify_signatures: true,
        }
    }

    fn extend(chain: &mut Blockchain, txs: Vec<Transaction>, ts: u64) -> Block {
        let tip = chain.tip_hash();
        let height = chain.tip_header().height + 1;
        let bits = chain.required_difficulty(&tip).unwrap();
        let block = Block::mine(tip, height, txs, ts, bits);
        chain.import(block.clone()).unwrap();
        block
    }

    #[test]
    fn genesis_is_deterministic() {
        let a = Blockchain::new(config(4));
        let b = Blockchain::new(config(4));
        assert_eq!(a.genesis_hash(), b.genesis_hash());
        assert_eq!(a.tip_header().height, 0);
    }

    #[test]
    fn extends_tip_linearly() {
        let mut chain = Blockchain::new(config(4));
        for i in 1..=5u64 {
            extend(&mut chain, vec![], i * 1_000);
            assert_eq!(chain.tip_header().height, i);
        }
        assert_eq!(chain.main_chain_hashes().len(), 6);
    }

    #[test]
    fn rejects_unknown_parent() {
        let mut chain = Blockchain::new(config(0));
        let orphan = Block::mine(Digest::of(b"nowhere"), 1, vec![], 0, 0);
        assert_eq!(chain.import(orphan), Err(ChainError::UnknownParent));
    }

    #[test]
    fn rejects_wrong_height() {
        let mut chain = Blockchain::new(config(0));
        let bad = Block::mine(chain.genesis_hash(), 5, vec![], 0, 0);
        assert_eq!(chain.import(bad), Err(ChainError::WrongHeight));
    }

    #[test]
    fn rejects_wrong_difficulty() {
        let mut chain = Blockchain::new(config(4));
        let bad = Block::mine(chain.genesis_hash(), 1, vec![], 0, 2);
        assert_eq!(
            chain.import(bad),
            Err(ChainError::WrongDifficulty {
                declared: 2,
                required: 4
            })
        );
    }

    #[test]
    fn rejects_bad_signature() {
        let mut chain = Blockchain::new(config(0));
        let kp = Keypair::from_seed(b"chain-tests");
        let mut body = Transaction::new_signed(&kp, 0, "c", "m", vec![]).into_body();
        body.payload = b"tampered".to_vec();
        let tx = Transaction::from_body(body);
        let block = Block::mine(chain.genesis_hash(), 1, vec![tx], 0, 0);
        assert_eq!(chain.import(block), Err(ChainError::BadSignature));
    }

    #[test]
    fn rejects_oversized_block() {
        let mut chain = Blockchain::new(config(0));
        let kp = Keypair::from_seed(b"chain-tests");
        let txs: Vec<_> = (0..9)
            .map(|i| Transaction::new_signed(&kp, i, "c", "m", vec![]))
            .collect();
        let block = Block::mine(chain.genesis_hash(), 1, txs, 0, 0);
        assert!(matches!(
            chain.import(block),
            Err(ChainError::BlockTooLarge { .. })
        ));
    }

    #[test]
    fn duplicate_import_is_already_known() {
        let mut chain = Blockchain::new(config(0));
        let block = Block::mine(chain.genesis_hash(), 1, vec![], 0, 0);
        assert_eq!(
            chain.import(block.clone()).unwrap(),
            ImportOutcome::ExtendedTip
        );
        assert_eq!(chain.import(block).unwrap(), ImportOutcome::AlreadyKnown);
    }

    #[test]
    fn side_chain_then_reorg() {
        let mut chain = Blockchain::new(config(2));
        let a1 = extend(&mut chain, vec![], 1_000); // main: a1
                                                    // Build a fork from genesis.
        let b1 = Block::mine(chain.genesis_hash(), 1, vec![], 1_500, 2);
        assert_eq!(chain.import(b1.clone()).unwrap(), ImportOutcome::SideChain);
        assert_eq!(chain.tip_hash(), a1.hash());
        // Extend the fork past the main chain.
        let bits = chain.required_difficulty(&b1.hash()).unwrap();
        let b2 = Block::mine(b1.hash(), 2, vec![], 2_000, bits);
        match chain.import(b2.clone()).unwrap() {
            ImportOutcome::Reorg { depth } => assert_eq!(depth, 1),
            other => panic!("expected reorg, got {other:?}"),
        }
        assert_eq!(chain.tip_hash(), b2.hash());
        assert_eq!(chain.main_chain_hashes().len(), 3);
    }

    #[test]
    fn fork_points_count_siblings_across_a_reorg() {
        let mut chain = Blockchain::new(config(2));
        assert_eq!(chain.fork_points().count(), 0);
        let a1 = extend(&mut chain, vec![], 1_000);
        assert_eq!(chain.fork_points().count(), 0, "a line has no forks");
        let genesis = chain.genesis_hash();
        let b1 = Block::mine(genesis, 1, vec![], 1_500, 2);
        chain.import(b1.clone()).unwrap();
        assert_eq!(chain.fork_points().collect::<Vec<_>>(), [(genesis, 1, 2)]);
        // A rejected block and a re-import leave the index alone.
        assert!(chain
            .import(Block::mine(genesis, 1, vec![], 1_600, 1))
            .is_err());
        assert_eq!(
            chain.import(b1.clone()).unwrap(),
            ImportOutcome::AlreadyKnown
        );
        assert_eq!(chain.fork_points().collect::<Vec<_>>(), [(genesis, 1, 2)]);
        // A third sibling, then a reorg onto the b-branch and a fork on it.
        chain
            .import(Block::mine(genesis, 1, vec![], 1_700, 2))
            .unwrap();
        let b2 = Block::mine(b1.hash(), 2, vec![], 2_000, 2);
        assert!(matches!(
            chain.import(b2).unwrap(),
            ImportOutcome::Reorg { .. }
        ));
        chain
            .import(Block::mine(b1.hash(), 2, vec![], 2_100, 2))
            .unwrap();
        let mut expected = vec![(genesis, 1, 3), (b1.hash(), 2, 2)];
        expected.sort();
        assert_eq!(chain.fork_points().collect::<Vec<_>>(), expected);
        assert_eq!(expected, chain.fork_points_by_full_scan());
        assert_ne!(chain.tip_hash(), a1.hash());
    }

    #[test]
    fn fork_points_match_the_full_scan_on_random_trees() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (mut triple_forks, mut reorgs) = (0, 0);
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // A random tree: every block picks its parent among the blocks
            // before it, from a window narrow enough to branch often.
            let reference = Blockchain::new(config(0));
            let mut tree = vec![(reference.genesis_hash(), 0u64)];
            let mut blocks = Vec::new();
            for i in 0..rng.gen_range(1..24usize) {
                let back = rng.gen_range(0..tree.len().min(4));
                let (parent, height) = tree[tree.len() - 1 - back];
                let block = Block::mine(parent, height + 1, vec![], i as u64, 0);
                tree.push((block.hash(), height + 1));
                blocks.push(block);
            }
            // Import in random order, duplicates included; a block whose
            // parent has not arrived yet is refused and retried later.
            let mut chain = Blockchain::new(ChainConfig {
                retarget_interval: 0,
                ..config(0)
            });
            let mut pending = blocks.clone();
            while !pending.is_empty() {
                let block = pending.swap_remove(rng.gen_range(0..pending.len()));
                match chain.import(block.clone()) {
                    Ok(outcome) => {
                        reorgs += usize::from(matches!(outcome, ImportOutcome::Reorg { .. }));
                        if rng.gen_bool(0.2) {
                            pending.push(block); // arrives again: AlreadyKnown
                        }
                    }
                    Err(ChainError::UnknownParent) => pending.push(block),
                    Err(e) => panic!("seed {seed}: {e}"),
                }
                assert_eq!(
                    chain.fork_points().collect::<Vec<_>>(),
                    chain.fork_points_by_full_scan(),
                    "seed {seed}"
                );
            }
            assert_eq!(chain.len(), blocks.len() + 1);
            triple_forks += chain.fork_points().filter(|f| f.2 >= 3).count();
        }
        assert!(triple_forks > 0 && reorgs > 0, "the trees must branch");
    }

    #[test]
    fn retarget_raises_difficulty_when_blocks_too_fast() {
        let mut chain = Blockchain::new(config(2));
        // Mine 4 blocks with tiny timestamps gaps (much faster than the
        // 1000 ms target); the retarget at height 4 must add a bit.
        for i in 1..=3u64 {
            extend(&mut chain, vec![], i * 10);
        }
        let required = chain.required_difficulty(&chain.tip_hash()).unwrap();
        assert_eq!(required, 3);
    }

    #[test]
    fn retarget_lowers_difficulty_when_blocks_too_slow() {
        let mut chain = Blockchain::new(config(4));
        for i in 1..=3u64 {
            extend(&mut chain, vec![], i * 10_000);
        }
        let required = chain.required_difficulty(&chain.tip_hash()).unwrap();
        assert_eq!(required, 3);
    }

    #[test]
    fn retarget_disabled_keeps_difficulty() {
        let mut chain = Blockchain::new(ChainConfig {
            initial_difficulty_bits: 3,
            retarget_interval: 0,
            ..ChainConfig::default()
        });
        for i in 1..=6u64 {
            extend(&mut chain, vec![], i);
            assert_eq!(chain.tip_header().difficulty_bits, 3);
        }
    }

    #[test]
    fn find_tx_and_confirmations() {
        let mut chain = Blockchain::new(config(0));
        let kp = Keypair::from_seed(b"chain-tests");
        let tx = Transaction::new_signed(&kp, 0, "c", "m", vec![]);
        let id = tx.id();
        extend(&mut chain, vec![tx], 1_000);
        assert_eq!(chain.confirmations(&id), Some(1));
        extend(&mut chain, vec![], 2_000);
        extend(&mut chain, vec![], 3_000);
        assert_eq!(chain.confirmations(&id), Some(3));
        assert_eq!(chain.confirmations(&Digest::of(b"ghost")), None);
    }

    #[test]
    fn block_at_height_walks_main_chain() {
        let mut chain = Blockchain::new(config(0));
        let b1 = extend(&mut chain, vec![], 1);
        let _b2 = extend(&mut chain, vec![], 2);
        assert_eq!(chain.block_at_height(1).unwrap().hash(), b1.hash());
        assert_eq!(
            chain.block_at_height(0).unwrap().hash(),
            chain.genesis_hash()
        );
        assert!(chain.block_at_height(9).is_none());
    }
}
