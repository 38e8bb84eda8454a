//! Pending-transaction pool.

use crate::error::ChainError;
use crate::tx::{Transaction, TxId};
use drams_crypto::schnorr::PublicKey;
use std::collections::{HashMap, VecDeque};

/// A FIFO mempool with duplicate suppression.
///
/// Ordering is arrival order, which combined with per-sender sequential
/// nonces gives deterministic execution order within each block.
///
/// The queue is a `VecDeque` (taking the front of the pool no longer
/// shifts every remaining transaction) and an id→sender index map backs
/// O(1) membership checks and per-sender pending counts — the paths the
/// Logging Interfaces hit on every submission and the miner on every
/// block.
///
/// A burst can fill the pool far past what it holds between bursts, and
/// neither a `VecDeque` nor a `HashMap` gives room back on its own. So
/// [`Mempool::take`] applies one fixed rule to the queue and both maps:
/// one with room for more than four times what it holds plus
/// [`SPARE_CAPACITY`] shrinks to what it holds. A pool that refills to
/// about the same size every block stays within that and never
/// reallocates; a mined burst gives its capacity back.
#[derive(Debug, Default)]
pub(crate) struct Mempool {
    queue: VecDeque<Transaction>,
    /// Pending tx id → sender. The map is the source of truth for
    /// membership; the sender lets `prune` maintain the per-sender counts
    /// without rescanning the queue.
    index: HashMap<TxId, PublicKey>,
    /// Pending transactions per sender (for nonce assignment).
    by_sender: HashMap<PublicKey, usize>,
}

/// Room a pool's queue or map may keep beyond four times what it holds
/// before [`Mempool::take`] shrinks it.
const SPARE_CAPACITY: usize = 64;

/// Whether a collection with room for `capacity` that holds `held`
/// should give the room back.
fn oversized(capacity: usize, held: usize) -> bool {
    capacity > 4 * held + SPARE_CAPACITY
}

impl Mempool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn index_insert(&mut self, id: TxId, sender: PublicKey) -> bool {
        if self.index.contains_key(&id) {
            return false;
        }
        self.index.insert(id, sender);
        *self.by_sender.entry(sender).or_insert(0) += 1;
        true
    }

    fn index_remove(&mut self, id: &TxId) {
        if let Some(sender) = self.index.remove(id) {
            if let Some(count) = self.by_sender.get_mut(&sender) {
                *count -= 1;
                if *count == 0 {
                    self.by_sender.remove(&sender);
                }
            }
        }
    }

    /// Adds a transaction.
    ///
    /// # Errors
    ///
    /// [`ChainError::DuplicateTransaction`] if the id is already pending.
    pub fn add(&mut self, tx: Transaction) -> Result<TxId, ChainError> {
        let id = tx.id();
        if !self.index_insert(id, tx.sender) {
            return Err(ChainError::DuplicateTransaction);
        }
        self.queue.push_back(tx);
        Ok(id)
    }

    /// Takes up to `n` transactions in arrival order, then gives back
    /// the room a burst left in the queue and maps (see [`Mempool`]).
    pub fn take(&mut self, n: usize) -> Vec<Transaction> {
        let n = n.min(self.queue.len());
        let taken: Vec<Transaction> = self.queue.drain(..n).collect();
        for tx in &taken {
            self.index_remove(&tx.id());
        }
        if oversized(self.queue.capacity(), self.queue.len()) {
            self.queue.shrink_to(self.queue.len());
        }
        if oversized(self.index.capacity(), self.index.len()) {
            self.index.shrink_to(self.index.len());
        }
        if oversized(self.by_sender.capacity(), self.by_sender.len()) {
            self.by_sender.shrink_to(self.by_sender.len());
        }
        taken
    }

    /// Removes any pending transactions whose ids are in `included`
    /// (called after importing a block mined elsewhere).
    pub(crate) fn prune<'a>(&mut self, included: impl IntoIterator<Item = &'a TxId>) {
        let mut removed = false;
        for id in included {
            if self.index.contains_key(id) {
                self.index_remove(id);
                removed = true;
            }
        }
        if removed {
            let index = &self.index;
            self.queue.retain(|tx| index.contains_key(&tx.id()));
        }
    }

    /// Number of pending transactions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Iterates the pending transactions in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &Transaction> {
        self.queue.iter()
    }

    /// Removes one pending transaction by id, returning it. The relative
    /// order of the remaining transactions is unchanged.
    pub fn remove(&mut self, id: &TxId) -> Option<Transaction> {
        if !self.index.contains_key(id) {
            return None;
        }
        self.index_remove(id);
        let pos = self.queue.iter().position(|tx| tx.id() == *id)?;
        self.queue.remove(pos)
    }

    /// Pending transactions from `sender` (used for nonce assignment).
    #[must_use]
    pub(crate) fn pending_from(&self, sender: &PublicKey) -> usize {
        self.by_sender.get(sender).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::TxBody;
    use drams_crypto::schnorr::Keypair;

    fn tx(nonce: u64) -> Transaction {
        let kp = Keypair::from_seed(b"mempool-tests");
        Transaction::new_signed(&kp, nonce, "c", "m", vec![nonce as u8])
    }

    fn tx_from(seed: &[u8], nonce: u64) -> Transaction {
        let kp = Keypair::from_seed(seed);
        Transaction::new_signed(&kp, nonce, "c", "m", vec![nonce as u8])
    }

    #[test]
    fn fifo_order_preserved() {
        let mut pool = Mempool::new();
        for i in 0..5 {
            pool.add(tx(i)).unwrap();
        }
        let taken = pool.take(3);
        assert_eq!(taken.iter().map(|t| t.nonce).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(pool.len(), 2);
        assert!(!pool.index.contains_key(&taken[0].id()));
    }

    #[test]
    fn duplicates_rejected() {
        let mut pool = Mempool::new();
        pool.add(tx(0)).unwrap();
        assert_eq!(pool.add(tx(0)), Err(ChainError::DuplicateTransaction));
    }

    #[test]
    fn take_more_than_available() {
        let mut pool = Mempool::new();
        pool.add(tx(0)).unwrap();
        assert_eq!(pool.take(10).len(), 1);
        assert!(pool.queue.is_empty());
    }

    #[test]
    fn prune_removes_included() {
        let mut pool = Mempool::new();
        let a = pool.add(tx(0)).unwrap();
        pool.add(tx(1)).unwrap();
        pool.prune([&a]);
        assert_eq!(pool.len(), 1);
        assert!(!pool.index.contains_key(&a));
    }

    #[test]
    fn remove_extracts_one_tx_and_keeps_order() {
        let mut pool = Mempool::new();
        let ids: Vec<TxId> = (0..4).map(|n| pool.add(tx(n)).unwrap()).collect();
        let removed = pool.remove(&ids[1]).unwrap();
        assert_eq!(removed.nonce, 1);
        assert!(!pool.index.contains_key(&ids[1]));
        assert!(pool.remove(&ids[1]).is_none(), "double remove is a no-op");
        let kp = Keypair::from_seed(b"mempool-tests");
        assert_eq!(pool.pending_from(&kp.public()), 3);
        let order: Vec<u64> = pool.take(10).iter().map(|t| t.nonce).collect();
        assert_eq!(order, [0, 2, 3]);
    }

    #[test]
    fn pending_from_counts_sender() {
        let mut pool = Mempool::new();
        pool.add(tx(0)).unwrap();
        pool.add(tx(1)).unwrap();
        let kp = Keypair::from_seed(b"mempool-tests");
        assert_eq!(pool.pending_from(&kp.public()), 2);
        let other = Keypair::from_seed(b"someone-else");
        assert_eq!(pool.pending_from(&other.public()), 0);
    }

    /// A mined burst gives its room back: after every `take` of 4,096
    /// submissions from four senders, mined in blocks of 300, the queue
    /// and both maps have room for at most four times what the pool
    /// still holds plus the rule's constant, and the queue and index none
    /// once it is empty.
    #[test]
    fn a_mined_burst_gives_back_its_capacity() {
        let mut pool = Mempool::new();
        let bodies: Vec<TxBody> = (0..4)
            .map(|s| tx_from(format!("burst-{s}").as_bytes(), 0).into_body())
            .collect();
        for n in 0..4_096u64 {
            let mut body = bodies[(n % 4) as usize].clone();
            body.nonce = n;
            pool.add(Transaction::from_body(body)).unwrap();
        }
        assert!(pool.queue.capacity() >= 4_096);
        let within = |capacity: usize, held: usize| capacity <= 4 * held + SPARE_CAPACITY;
        while pool.len() > 0 {
            let before = pool.len();
            assert_eq!(pool.take(300).len(), before.min(300));
            assert!(within(pool.queue.capacity(), pool.len()));
            assert!(within(pool.index.capacity(), pool.len()));
            assert!(within(pool.by_sender.capacity(), pool.by_sender.len()));
        }
        assert_eq!(pool.queue.capacity(), 0);
        assert_eq!(pool.index.capacity(), 0);
    }

    /// A pool that refills to the same size every block keeps its room:
    /// the rule never shrinks what the next block's submissions regrow.
    #[test]
    fn a_pool_refilled_each_block_keeps_its_room() {
        let mut pool = Mempool::new();
        for block in 0..8u64 {
            for n in 0..12 {
                pool.add(tx(block * 12 + n)).unwrap();
            }
            let room = (pool.queue.capacity(), pool.index.capacity());
            assert_eq!(pool.take(12).len(), 12);
            assert_eq!((pool.queue.capacity(), pool.index.capacity()), room);
        }
    }

    /// The id index and sender counts must stay consistent with the queue
    /// across prune and take.
    #[test]
    fn index_stays_consistent_across_prune_and_take() {
        let mut pool = Mempool::new();
        let a_txs: Vec<Transaction> = (0..4).map(|n| tx_from(b"sender-a", n)).collect();
        let b_txs: Vec<Transaction> = (0..3).map(|n| tx_from(b"sender-b", n)).collect();
        for tx in a_txs.iter().chain(&b_txs) {
            pool.add(tx.clone()).unwrap();
        }
        let a = Keypair::from_seed(b"sender-a").public();
        let b = Keypair::from_seed(b"sender-b").public();

        let check = |pool: &Mempool, expect_a: usize, expect_b: usize| {
            assert_eq!(pool.pending_from(&a), expect_a);
            assert_eq!(pool.pending_from(&b), expect_b);
            assert_eq!(pool.len(), expect_a + expect_b);
            // every queued tx is indexed, and nothing else is
            assert_eq!(pool.index.len(), pool.queue.len());
            for tx in &pool.queue {
                assert!(pool.index.contains_key(&tx.id()));
            }
        };
        check(&pool, 4, 3);

        // Prune one of each sender's transactions (as if mined elsewhere).
        pool.prune([&a_txs[1].id(), &b_txs[0].id()]);
        check(&pool, 3, 2);
        assert!(!pool.index.contains_key(&a_txs[1].id()));

        // Draining through take leaves an empty, consistent index.
        let drained = pool.take(7);
        assert_eq!(drained.len(), 5);
        check(&pool, 0, 0);
        assert!(pool.by_sender.is_empty());
        assert!(pool.index.is_empty());
    }
}
