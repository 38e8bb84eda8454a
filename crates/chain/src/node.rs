//! A full blockchain node: chain + mempool + contract host + miner.

use crate::block::{Block, BlockHeader};
use crate::chain::{Blockchain, ChainConfig, ImportOutcome};
use crate::contract::{ContractHost, Event, SmartContract};
use crate::error::ChainError;
use crate::mempool::Mempool;
use crate::tx::{Transaction, TxId};
use drams_crypto::schnorr::{Keypair, PublicKey};

/// A write-ahead journal for a [`Node`]'s durable state.
///
/// The node stays storage-agnostic: it calls one of these hooks for each
/// of its inputs — an accepted transaction, a block it mined, a block a
/// peer sent — and an implementation (e.g.
/// `drams_store::persist::WalJournal`) decides how the records hit disk.
/// Each input is recorded once. Replaying the records in order —
/// transactions re-submitted, mined blocks taken from the pool again
/// ([`Node::replay_mined`]), peer blocks re-received — reconstructs the
/// node's chain, contract state *and* mempool exactly, which is what the
/// E11 crash-restart scenarios rely on.
pub trait NodeJournal {
    /// Records a transaction about to be accepted into the mempool.
    ///
    /// Called *before* the mempool accepts (write-ahead): a journaled
    /// transaction the mempool then rejects is harmless on replay, the
    /// reverse would lose data.
    ///
    /// # Errors
    ///
    /// A human-readable reason; the node surfaces it as
    /// [`ChainError::Journal`] and does not accept the transaction.
    fn record_transaction(&mut self, tx: &Transaction) -> Result<(), String>;

    /// Records a block this node mined, before the chain imports it
    /// (write-ahead, like transactions). Every transaction in it was
    /// taken from the pool, so each was recorded when it was accepted:
    /// the header and the transaction ids are the whole input, and
    /// [`Node::replay_mined`] replays them.
    ///
    /// # Errors
    ///
    /// As [`NodeJournal::record_transaction`].
    fn record_mined(&mut self, block: &Block) -> Result<(), String>;

    /// Records a block received from a peer, whole: its transactions need
    /// never have passed through this node's pool. Side-chain blocks are
    /// recorded too — a later reorg may promote them.
    ///
    /// # Errors
    ///
    /// As [`NodeJournal::record_transaction`].
    fn record_block(&mut self, block: &Block) -> Result<(), String>;
}

/// A single node of the private DRAMS chain.
///
/// # Example
///
/// ```
/// use drams_chain::node::Node;
/// use drams_chain::chain::ChainConfig;
/// use drams_chain::contract::KvStoreContract;
/// use drams_crypto::schnorr::Keypair;
///
/// # fn main() -> Result<(), drams_chain::error::ChainError> {
/// let mut node = Node::new(ChainConfig {
///     initial_difficulty_bits: 4,
///     ..ChainConfig::default()
/// });
/// node.register_contract(Box::new(KvStoreContract));
///
/// let kp = Keypair::from_seed(b"li-1");
/// let tx_id = node.submit_call(&kp, "kvstore", "put", b"log entry".to_vec())?;
/// node.mine_block(1_000)?;
/// assert_eq!(node.chain().confirmations(&tx_id), Some(1));
/// # Ok(())
/// # }
/// ```
pub struct Node {
    chain: Blockchain,
    mempool: Mempool,
    host: ContractHost,
    journal: Option<Box<dyn NodeJournal>>,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("height", &self.chain.tip_header().height)
            .field("mempool", &self.mempool.len())
            .finish_non_exhaustive()
    }
}

impl Node {
    /// Creates a node with a fresh chain.
    #[must_use]
    pub fn new(config: ChainConfig) -> Self {
        let chain = Blockchain::new(config);
        let mut host = ContractHost::new();
        host.sync_with(&chain);
        Node {
            chain,
            mempool: Mempool::new(),
            host,
            journal: None,
        }
    }

    /// Registers a smart contract.
    pub fn register_contract(&mut self, contract: Box<dyn SmartContract>) {
        self.host.register(contract);
    }

    /// Attaches a write-ahead journal. From now on each input is recorded
    /// through it, once: an accepted transaction
    /// ([`NodeJournal::record_transaction`]), a block this node mined, as
    /// the ids it took from the pool ([`NodeJournal::record_mined`]), and
    /// a block a peer sent, whole ([`NodeJournal::record_block`]).
    ///
    /// A mined record names transactions it assumes the journal already
    /// holds, so the pool must be empty here, or rebuilt from this same
    /// journal (`drams_store::persist::recover_node`). A pooled
    /// transaction the journal never saw makes the next mined block's
    /// record unreplayable ([`ChainError::NotPending`]).
    pub fn set_journal(&mut self, journal: Box<dyn NodeJournal>) {
        self.journal = Some(journal);
    }

    /// The underlying chain (read-only).
    #[must_use]
    pub fn chain(&self) -> &Blockchain {
        &self.chain
    }

    /// The contract host (read-only).
    #[must_use]
    pub fn host(&self) -> &ContractHost {
        &self.host
    }

    /// Pending transaction count.
    #[must_use]
    pub fn mempool_len(&self) -> usize {
        self.mempool.len()
    }

    /// Iterates the pending transactions in arrival order.
    pub fn pending_transactions(&self) -> impl Iterator<Item = &Transaction> {
        self.mempool.iter()
    }

    /// Byzantine-node fault injection: silently discards one pending
    /// transaction (a withheld commit), returning it. The write-ahead
    /// journal is deliberately **not** touched — a node replaying its
    /// journal after a crash resurrects the transaction in its original
    /// place in the pool, exactly as a real silent drop behaves.
    pub fn withhold_transaction(&mut self, id: &TxId) -> Option<Transaction> {
        self.mempool.remove(id)
    }

    /// The nonce `sender` should use for its next transaction, accounting
    /// for transactions still in the mempool.
    #[must_use]
    pub fn next_nonce(&self, sender: &PublicKey) -> u64 {
        self.host.account_nonce(sender) + self.mempool.pending_from(sender) as u64
    }

    /// Signs and submits a contract call in one step.
    ///
    /// # Errors
    ///
    /// As [`Node::submit_transaction`].
    pub fn submit_call(
        &mut self,
        keypair: &Keypair,
        contract: &str,
        method: &str,
        payload: Vec<u8>,
    ) -> Result<TxId, ChainError> {
        let nonce = self.next_nonce(&keypair.public());
        let tx = Transaction::new_signed(keypair, nonce, contract, method, payload);
        self.submit_transaction(tx)
    }

    /// Submits a pre-signed transaction to the mempool.
    ///
    /// # Errors
    ///
    /// [`ChainError::BadSignature`] or
    /// [`ChainError::DuplicateTransaction`].
    pub fn submit_transaction(&mut self, tx: Transaction) -> Result<TxId, ChainError> {
        if self.chain.config().verify_signatures {
            tx.verify_signature()?;
        }
        if let Some(journal) = &mut self.journal {
            // Write-ahead: journal before the mempool accepts. A record
            // the mempool then rejects is harmless on replay.
            journal
                .record_transaction(&tx)
                .map_err(ChainError::Journal)?;
        }
        self.mempool.add(tx)
    }

    /// Mines one block from the mempool at the required difficulty,
    /// imports it and executes its transactions. Returns the block (also
    /// when empty — DRAMS epochs advance on empty blocks too) as the
    /// chain now holds it: the new tip, since it extends the old one.
    ///
    /// # Errors
    ///
    /// [`ChainError::Journal`] when the block could not be journaled;
    /// otherwise import errors (which indicate a bug, since the node mines
    /// exactly what the chain requires).
    pub fn mine_block(&mut self, timestamp_ms: u64) -> Result<&Block, ChainError> {
        let txs = self.mempool.take(self.chain.config().max_block_txs);
        let parent = self.chain.tip_hash();
        let height = self.chain.tip_header().height + 1;
        let bits = self.chain.required_difficulty(&parent)?;
        let block = Block::mine(parent, height, txs, timestamp_ms, bits);
        if let Some(journal) = &mut self.journal {
            // Write-ahead, like transactions: the mined block is durable
            // before the chain advances, so a journal failure (or a
            // crash between the two steps) never leaves the in-memory
            // tip ahead of the durable log. Replaying a journaled block
            // whose import below then failed is safe — a self-mined
            // block imports deterministically.
            journal.record_mined(&block).map_err(ChainError::Journal)?;
        }
        self.import_mined(block)?;
        Ok(self.chain.tip_block())
    }

    /// Replays a block this node mined, as [`NodeJournal::record_mined`]
    /// recorded it: takes exactly the transactions `ids` names out of the
    /// pool, in that order, and imports them under `header`. Journals
    /// nothing — the record is already in the journal being replayed.
    ///
    /// # Errors
    ///
    /// [`ChainError::NotPending`] when an id is not in the pool, and any
    /// import error — [`ChainError::BadTxRoot`] when the transactions are
    /// not the ones `header` commits to.
    pub fn replay_mined(&mut self, header: BlockHeader, ids: &[TxId]) -> Result<(), ChainError> {
        let mut transactions = Vec::with_capacity(ids.len());
        for id in ids {
            let tx = self.mempool.remove(id).ok_or(ChainError::NotPending(*id))?;
            transactions.push(tx);
        }
        self.import_mined(Block {
            header,
            transactions,
        })
    }

    fn import_mined(&mut self, block: Block) -> Result<(), ChainError> {
        self.chain.import(block)?;
        self.host.sync_with(&self.chain);
        Ok(())
    }

    /// Imports a block received from a peer, pruning its transactions from
    /// the mempool and syncing contract state.
    ///
    /// # Errors
    ///
    /// Any [`ChainError`] from validation, or [`ChainError::Journal`]
    /// when the block imported but could not be made durable (the
    /// in-memory state is consistent; only the journal is behind).
    pub fn receive_block(&mut self, block: Block) -> Result<ImportOutcome, ChainError> {
        let ids: Vec<TxId> = block.transactions.iter().map(Transaction::id).collect();
        // Peer blocks cannot be journaled write-ahead: import may
        // legitimately reject them, and junk records would poison
        // replay. Journal write-behind instead, only after the mempool
        // prune and contract sync settle, so a journal failure leaves
        // the in-memory node fully consistent.
        let journaled = self.journal.is_some().then(|| block.clone());
        let outcome = self.chain.import(block)?;
        if !matches!(
            outcome,
            ImportOutcome::SideChain | ImportOutcome::AlreadyKnown
        ) {
            self.mempool.prune(ids.iter());
            self.host.sync_with(&self.chain);
        }
        if !matches!(outcome, ImportOutcome::AlreadyKnown) {
            if let (Some(journal), Some(block)) = (&mut self.journal, &journaled) {
                // Side-chain blocks are journaled too: a later reorg may
                // promote them, and replay re-runs the same fork choice.
                journal.record_block(block).map_err(ChainError::Journal)?;
            }
        }
        Ok(outcome)
    }

    /// The retained contract events: those not yet released (see
    /// [`Node::release_events`]).
    #[must_use]
    pub fn events(&self) -> &[Event] {
        self.host.events()
    }

    /// Events emitted since log position `cursor`; returns the slice and
    /// the new cursor. Positions stay the same across a release.
    ///
    /// # Panics
    ///
    /// If `cursor` is below the released prefix.
    #[must_use]
    pub fn events_since(&self, cursor: usize) -> (&[Event], usize) {
        self.host.events_since(cursor)
    }

    /// Releases the events below log position `upto`, which every reader
    /// of the log has passed, once they are at least half of the events
    /// held; see `ContractHost::release_events`.
    pub fn release_events(&mut self, upto: usize) {
        self.host.release_events(upto);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::KvStoreContract;

    fn node(bits: u32) -> Node {
        let mut n = Node::new(ChainConfig {
            initial_difficulty_bits: bits,
            retarget_interval: 0,
            ..ChainConfig::default()
        });
        n.register_contract(Box::new(KvStoreContract));
        n
    }

    #[test]
    fn submit_mine_execute_cycle() {
        let mut n = node(0);
        let kp = Keypair::from_seed(b"node-tests");
        let id = n
            .submit_call(&kp, "kvstore", "put", b"entry".to_vec())
            .unwrap();
        assert_eq!(n.mempool_len(), 1);
        let block = n.mine_block(1_000).unwrap();
        assert_eq!(block.transactions.len(), 1);
        assert_eq!(n.mempool_len(), 0);
        assert_eq!(n.events().len(), 1);
        assert_eq!(n.events()[0].tx_id, id);
    }

    #[test]
    fn next_nonce_counts_pending() {
        let mut n = node(0);
        let kp = Keypair::from_seed(b"node-tests");
        assert_eq!(n.next_nonce(&kp.public()), 0);
        n.submit_call(&kp, "kvstore", "put", vec![]).unwrap();
        assert_eq!(n.next_nonce(&kp.public()), 1);
        n.submit_call(&kp, "kvstore", "put", vec![]).unwrap();
        assert_eq!(n.next_nonce(&kp.public()), 2);
        n.mine_block(1).unwrap();
        assert_eq!(n.next_nonce(&kp.public()), 2);
    }

    #[test]
    fn rejects_bad_signature_at_submit() {
        let mut n = node(0);
        let kp = Keypair::from_seed(b"node-tests");
        let mut body = Transaction::new_signed(&kp, 0, "kvstore", "put", vec![]).into_body();
        body.payload = b"evil".as_slice().into();
        let tx = Transaction::from_body(body);
        assert_eq!(n.submit_transaction(tx), Err(ChainError::BadSignature));
    }

    #[test]
    fn peers_converge_via_receive_block() {
        let mut miner = node(0);
        let mut follower = node(0);
        let kp = Keypair::from_seed(b"node-tests");
        miner
            .submit_call(&kp, "kvstore", "put", b"x".to_vec())
            .unwrap();
        let block = miner.mine_block(1_000).unwrap().clone();
        follower.receive_block(block).unwrap();
        assert_eq!(follower.chain().tip_hash(), miner.chain().tip_hash());
        assert_eq!(follower.events().len(), miner.events().len());
    }

    #[test]
    fn events_cursor_advances() {
        let mut n = node(0);
        let kp = Keypair::from_seed(b"node-tests");
        n.submit_call(&kp, "kvstore", "put", vec![]).unwrap();
        n.mine_block(1).unwrap();
        let (events, cursor) = n.events_since(0);
        assert_eq!(events.len(), 1);
        let (events, _) = n.events_since(cursor);
        assert!(events.is_empty());
    }

    #[test]
    fn empty_blocks_still_mine() {
        let mut n = node(2);
        let block = n.mine_block(1).unwrap();
        assert!(block.transactions.is_empty());
        assert_eq!(n.chain().tip_header().height, 1);
    }
}
