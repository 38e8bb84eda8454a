//! Chain-node persistence: the node's write-ahead journal and recovery.
//!
//! [`WalJournal`] implements [`drams_chain::node::NodeJournal`] over a
//! shared [`Wal`]: each input the node takes becomes one tagged,
//! checksummed WAL record, and no input is written twice —
//!
//! - `TAG_TX`: a transaction the node accepted;
//! - `TAG_MINED`: a block the node mined, as its header and the ids of
//!   the transactions it took from the pool (each one already journaled
//!   as a `TAG_TX` record);
//! - `TAG_BLOCK`: a block a peer sent, whole, since its transactions
//!   need never have passed through this node's pool.
//!
//! [`recover_node`] replays the records into a fresh node strictly in
//! journal order, which is the order in which the live node took its
//! inputs — so chain, contract state *and* mempool come back exactly as
//! they were when the journal was last synced, side chains and all.
//!
//! The journal is its WAL segments, and nothing else: each record is an
//! input the node took once, so none is ever redundant and the journal
//! grows with the ledger. [`recover_node`] replays it from seq 0 and
//! refuses a journal that segments alone do not describe — one with a
//! file beside its segments or a pruned prefix, as an older layout that
//! compacted the journal into a second file left it.
//!
//! The journal is shared via `Rc<RefCell<…>>` so a crash-recovery harness
//! can keep the log alive across the simulated death of the node that
//! writes to it (the scenario runtime's `CrashRestart` does exactly
//! this).
//!
//! # Example
//!
//! ```
//! use std::cell::RefCell;
//! use std::rc::Rc;
//! use drams_chain::chain::ChainConfig;
//! use drams_chain::contract::KvStoreContract;
//! use drams_chain::node::Node;
//! use drams_crypto::schnorr::Keypair;
//! use drams_store::backend::MemBackend;
//! use drams_store::persist::{recover_node, WalJournal};
//! use drams_store::wal::{Wal, WalConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = ChainConfig { initial_difficulty_bits: 0, retarget_interval: 0,
//!                            ..ChainConfig::default() };
//! let wal = Rc::new(RefCell::new(Wal::open(
//!     Box::new(MemBackend::new()), WalConfig::default())?));
//!
//! let mut node = Node::new(config.clone());
//! node.register_contract(Box::new(KvStoreContract));
//! node.set_journal(Box::new(WalJournal::new(wal.clone())));
//! let kp = Keypair::from_seed(b"doc-li");
//! node.submit_call(&kp, "kvstore", "put", b"entry".to_vec())?;
//! node.mine_block(1_000)?;
//! node.submit_call(&kp, "kvstore", "put", b"pending".to_vec())?;
//! drop(node); // the process dies
//!
//! let recovered = recover_node(&wal.borrow(), config, vec![Box::new(KvStoreContract)])?;
//! assert_eq!(recovered.chain().tip_header().height, 1);
//! assert_eq!(recovered.mempool_len(), 1, "pending tx survives via the WAL");
//! # Ok(())
//! # }
//! ```

use crate::error::StoreError;
use crate::wal::Wal;
use drams_chain::block::{Block, BlockHeader};
use drams_chain::chain::ChainConfig;
use drams_chain::contract::SmartContract;
use drams_chain::error::ChainError;
use drams_chain::node::{Node, NodeJournal};
use drams_chain::tx::{Transaction, TxId};
use drams_crypto::codec::{decode_seq, Decode, Encode, Reader, Writer};
use drams_crypto::CryptoError;
use std::cell::RefCell;
use std::rc::Rc;

/// Record tag: the payload is a canonical [`Transaction`] the node
/// accepted.
const TAG_TX: u8 = 1;
/// Record tag: the payload is a canonical [`Block`] received from a peer.
const TAG_BLOCK: u8 = 2;
/// Record tag: a block the node mined. The payload is its canonical
/// [`BlockHeader`], then the ids of its transactions in block order, as a
/// sequence (a varint count, then 32 bytes each).
const TAG_MINED: u8 = 3;

/// A [`NodeJournal`] writing tagged records into a shared [`Wal`].
#[derive(Debug)]
pub struct WalJournal {
    wal: Rc<RefCell<Wal>>,
}

impl WalJournal {
    /// Wraps a shared WAL as a node journal.
    #[must_use]
    pub fn new(wal: Rc<RefCell<Wal>>) -> Self {
        WalJournal { wal }
    }

    fn record(&mut self, tag: u8, payload: impl FnOnce(&mut Writer)) -> Result<(), String> {
        let mut record = Writer::with_capacity(256);
        record.put_u8(tag);
        payload(&mut record);
        self.wal
            .borrow_mut()
            .append(&record.into_bytes())
            .map(|_| ())
            .map_err(|e| e.to_string())
    }
}

impl NodeJournal for WalJournal {
    fn record_transaction(&mut self, tx: &Transaction) -> Result<(), String> {
        self.record(TAG_TX, |w| tx.encode(w))
    }

    fn record_mined(&mut self, block: &Block) -> Result<(), String> {
        self.record(TAG_MINED, |w| {
            block.header.encode(w);
            w.put_varint(block.transactions.len() as u64);
            for tx in &block.transactions {
                tx.id().encode(w);
            }
        })
    }

    fn record_block(&mut self, block: &Block) -> Result<(), String> {
        self.record(TAG_BLOCK, |w| block.encode(w))
    }
}

/// The header and transaction ids of a [`TAG_MINED`] payload.
fn decode_mined(payload: &[u8]) -> Result<(BlockHeader, Vec<TxId>), CryptoError> {
    let mut r = Reader::new(payload);
    let header = BlockHeader::decode(&mut r)?;
    let ids = decode_seq(&mut r)?;
    r.finish()?;
    Ok((header, ids))
}

/// Replays journal record `seq` into `node`.
fn replay_record(node: &mut Node, seq: u64, record: &[u8]) -> Result<(), StoreError> {
    let Some((&tag, payload)) = record.split_first() else {
        return Err(StoreError::Codec(format!("empty journal record {seq}")));
    };
    let malformed = |e: CryptoError| StoreError::Codec(format!("journal record {seq}: {e}"));
    let replayed = match tag {
        TAG_TX => {
            let tx = Transaction::from_canonical_bytes(payload).map_err(malformed)?;
            match node.submit_transaction(tx) {
                Ok(_) | Err(ChainError::DuplicateTransaction) => Ok(()),
                Err(e) => Err(e),
            }
        }
        TAG_MINED => {
            let (header, ids) = decode_mined(payload).map_err(malformed)?;
            node.replay_mined(header, &ids)
        }
        TAG_BLOCK => {
            let block = Block::from_canonical_bytes(payload).map_err(malformed)?;
            node.receive_block(block).map(|_| ())
        }
        other => {
            return Err(StoreError::Codec(format!(
                "journal record {seq} has unknown tag {other}"
            )))
        }
    };
    replayed.map_err(|e| StoreError::Codec(format!("journal record {seq} does not replay: {e}")))
}

/// Leaves a node journal as it is and returns `(n, n)`, where `n` is its
/// record count: the journal is its segments, and no record is ever
/// redundant — each is an input the node took once — so there is nothing
/// to compact. Kept only because the repo benchmark (`benchmark/`), which
/// is frozen, still calls it.
///
/// # Errors
///
/// Never; the `Result` is the signature the benchmark compiles against.
pub fn compact_node_journal(wal: &mut Wal) -> Result<(u64, u64), StoreError> {
    let records = wal.next_seq();
    Ok((records, records))
}

/// Rebuilds a node from its journal: a fresh node with `config` and
/// `contracts` registered, then every journaled record replayed in
/// journal order, from seq 0. The returned node carries **no** journal —
/// attach one (over the same WAL) with [`Node::set_journal`] to keep
/// journaling.
///
/// Transactions are re-submitted, mined blocks take exactly the
/// transactions they name out of the pool again ([`Node::replay_mined`]),
/// peer blocks are re-received. The live node took the same inputs in the
/// same order, so the recovered one ends up the same: chain, contract
/// state and the pool in order, side-chain imports included.
///
/// Replay tolerates exactly the benign duplicate write-ahead journaling
/// produces (a transaction journaled, then rejected by the mempool as
/// already pending); everything else — an undecodable record, a mined
/// block naming a transaction the pool does not hold, a block the chain
/// refuses — is an error, because it means the journal does not describe
/// a state this node ever held.
///
/// # Errors
///
/// [`StoreError::Corrupt`] when the WAL is damaged (naming the file and
/// the offset), or when it is not the whole journal: a file lies beside
/// its segments, or records before its first retained one were pruned —
/// the shape a journal compacted by an older layout has, which is refused
/// and not migrated. [`StoreError::Codec`] when a record does not decode
/// or does not replay (naming its WAL sequence number).
pub fn recover_node(
    wal: &Wal,
    config: ChainConfig,
    contracts: Vec<Box<dyn SmartContract>>,
) -> Result<Node, StoreError> {
    wal.check_whole()?;
    let mut node = Node::new(config);
    for contract in contracts {
        node.register_contract(contract);
    }
    wal.visit_from(0, |seq, record| replay_record(&mut node, seq, record))?;
    Ok(node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, Durability, MemBackend};
    use crate::wal::{WalConfig, SNAPSHOT_FILE};
    use drams_chain::contract::KvStoreContract;
    use drams_chain::tx::TxId;
    use drams_crypto::schnorr::Keypair;
    use drams_crypto::sha256::Digest;

    fn config() -> ChainConfig {
        ChainConfig {
            initial_difficulty_bits: 0,
            retarget_interval: 0,
            ..ChainConfig::default()
        }
    }

    fn journaled_node() -> (Node, Rc<RefCell<Wal>>) {
        let wal = Rc::new(RefCell::new(
            Wal::open(
                Box::new(MemBackend::new()),
                WalConfig {
                    segment_records: 8,
                    durability: Durability::Flushed,
                },
            )
            .unwrap(),
        ));
        let mut node = Node::new(config());
        node.register_contract(Box::new(KvStoreContract));
        node.set_journal(Box::new(WalJournal::new(wal.clone())));
        (node, wal)
    }

    #[test]
    fn recovered_node_matches_chain_contracts_and_mempool() {
        let (mut node, wal) = journaled_node();
        let kp = Keypair::from_seed(b"persist-tests");
        for i in 0..5 {
            node.submit_call(&kp, "kvstore", "put", format!("e{i}").into_bytes())
                .unwrap();
            if i % 2 == 1 {
                node.mine_block(1_000 + i).unwrap();
            }
        }
        // One committed-history marker and the live mempool to compare.
        let tip = node.chain().tip_hash();
        let events = node.events().len();
        let pending = node.mempool_len();
        assert!(pending > 0, "test wants a non-empty mempool");
        drop(node);

        let recovered =
            recover_node(&wal.borrow(), config(), vec![Box::new(KvStoreContract)]).unwrap();
        assert_eq!(recovered.chain().tip_hash(), tip);
        assert_eq!(recovered.events().len(), events);
        assert_eq!(recovered.mempool_len(), pending);
        // The recovered node keeps working: mine the pending tail.
        let mut recovered = recovered;
        let block = recovered.mine_block(9_999).unwrap();
        assert_eq!(block.transactions.len(), pending);
    }

    #[test]
    fn recovery_after_simulated_crash_loses_nothing_when_flushed() {
        let (mut node, wal) = journaled_node();
        let kp = Keypair::from_seed(b"persist-tests");
        node.submit_call(&kp, "kvstore", "put", b"a".to_vec())
            .unwrap();
        node.mine_block(1).unwrap();
        node.submit_call(&kp, "kvstore", "put", b"b".to_vec())
            .unwrap();
        let tip = node.chain().tip_hash();
        drop(node);

        wal.borrow_mut().simulate_crash().unwrap();
        let recovered =
            recover_node(&wal.borrow(), config(), vec![Box::new(KvStoreContract)]).unwrap();
        assert_eq!(recovered.chain().tip_hash(), tip);
        assert_eq!(recovered.mempool_len(), 1);
    }

    #[test]
    fn garbage_journal_record_is_a_typed_error() {
        let (mut node, wal) = journaled_node();
        let kp = Keypair::from_seed(b"persist-tests");
        node.submit_call(&kp, "kvstore", "put", b"a".to_vec())
            .unwrap();
        drop(node);
        wal.borrow_mut().append(&[99, 1, 2, 3]).unwrap();
        let err =
            recover_node(&wal.borrow(), config(), vec![Box::new(KvStoreContract)]).unwrap_err();
        assert!(matches!(err, StoreError::Codec(_)), "{err:?}");
    }

    #[test]
    fn recovered_node_continues_journaling_on_the_same_wal() {
        let (mut node, wal) = journaled_node();
        let kp = Keypair::from_seed(b"persist-tests");
        node.submit_call(&kp, "kvstore", "put", b"a".to_vec())
            .unwrap();
        node.mine_block(1).unwrap();
        drop(node);

        let mut recovered =
            recover_node(&wal.borrow(), config(), vec![Box::new(KvStoreContract)]).unwrap();
        recovered.set_journal(Box::new(WalJournal::new(wal.clone())));
        recovered
            .submit_call(&kp, "kvstore", "put", b"c".to_vec())
            .unwrap();
        recovered.mine_block(2).unwrap();
        let tip = recovered.chain().tip_hash();
        drop(recovered);

        // A second recovery sees the whole combined history.
        let again = recover_node(&wal.borrow(), config(), vec![Box::new(KvStoreContract)]).unwrap();
        assert_eq!(again.chain().tip_hash(), tip);
        assert_eq!(again.chain().tip_header().height, 2);
    }

    /// The frozen benchmark still calls `compact_node_journal`: it touches
    /// nothing on the medium, counts what was journaled however often it
    /// runs, and the journal recovers as if it had never run.
    #[test]
    fn compaction_is_idempotent_and_composes_with_later_appends() {
        let medium = FaultyBackend::default();
        let wal = Rc::new(RefCell::new(open(&medium)));
        let compact = || {
            let before = medium.0.borrow().changes.len();
            let counts = compact_node_journal(&mut wal.borrow_mut()).unwrap();
            assert_eq!(medium.0.borrow().changes.len(), before, "nothing changed");
            counts
        };
        let mut node = Node::new(config());
        node.register_contract(Box::new(KvStoreContract));
        node.set_journal(Box::new(WalJournal::new(wal.clone())));
        let kp = Keypair::from_seed(b"persist-tests");
        node.submit_call(&kp, "kvstore", "put", b"a".to_vec())
            .unwrap();
        node.mine_block(1).unwrap();
        assert_eq!(compact(), (2, 2));
        assert_eq!(compact(), (2, 2));
        node.submit_call(&kp, "kvstore", "put", b"b".to_vec())
            .unwrap();
        node.mine_block(2).unwrap();
        let tip = node.chain().tip_hash();
        drop(node);
        assert_eq!(compact(), (4, 4));
        wal.borrow_mut().simulate_crash().unwrap();
        let again = recover_node(&wal.borrow(), config(), vec![Box::new(KvStoreContract)]).unwrap();
        assert_eq!(again.chain().tip_hash(), tip);
        assert_eq!(again.chain().tip_header().height, 2);
    }

    // -- journal order: side chains, withheld and mined records ----------

    use crate::backend::testing::FaultyBackend;
    use crate::wal::segment_file_name;
    use drams_chain::block::BlockHash;
    use drams_chain::chain::ImportOutcome;
    use drams_chain::contract::Event;
    use proptest::prelude::*;

    /// What two nodes must agree on to be the same node: tip, events,
    /// contract storage, and the mempool in order.
    type NodeState = (BlockHash, Vec<Event>, Vec<(Vec<u8>, Vec<u8>)>, Vec<TxId>);

    fn state(node: &Node) -> NodeState {
        let storage = node
            .host()
            .storage_of("kvstore")
            .map_or_else(Vec::new, |s| {
                s.scan_prefix(&[])
                    .map(|(k, v)| (k.to_vec(), v.to_vec()))
                    .collect()
            });
        (
            node.chain().tip_hash(),
            node.events().to_vec(),
            storage,
            node.pending_transactions().map(Transaction::id).collect(),
        )
    }

    fn recovered(wal: &Wal, config: &ChainConfig) -> Node {
        recover_node(wal, config.clone(), vec![Box::new(KvStoreContract)]).unwrap()
    }

    fn journal_of(wal: &Wal) -> Vec<Vec<u8>> {
        wal.replay().unwrap().into_iter().map(|(_, r)| r).collect()
    }

    /// A live node that released part of its event log and the node
    /// recovered from its journal agree on every position from the
    /// released prefix on: the recovered node replays the whole log, and
    /// positions do not depend on what was released.
    #[test]
    fn recovered_node_serves_the_released_nodes_event_positions() {
        let (mut node, wal) = journaled_node();
        let kp = Keypair::from_seed(b"persist-tests");
        for i in 0..6 {
            node.submit_call(&kp, "kvstore", "put", format!("e{i}").into_bytes())
                .unwrap();
            node.mine_block(1_000 + i).unwrap();
        }
        node.release_events(4);
        assert_eq!(node.events().len(), 2, "four of six released");
        let reads = |node: &Node| -> Vec<(Vec<Event>, usize)> {
            (4..=8)
                .map(|c| {
                    let (events, next) = node.events_since(c);
                    (events.to_vec(), next)
                })
                .collect()
        };
        let live = reads(&node);
        drop(node);
        let recovered = recovered(&wal.borrow(), &config());
        assert_eq!(recovered.events().len(), 6);
        assert_eq!(reads(&recovered), live);
    }

    fn mem_wal(segment_records: usize) -> Rc<RefCell<Wal>> {
        let config = WalConfig {
            segment_records,
            durability: Durability::Flushed,
        };
        Rc::new(RefCell::new(
            Wal::open(Box::new(MemBackend::new()), config).unwrap(),
        ))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Whatever the interleaving — side-chain blocks, reorgs and
        /// crashes included — the journal recovers the live node.
        #[test]
        fn whatever_the_interleaving_the_journal_recovers_the_live_node(
            ops in prop::collection::vec(0u8..8, 1..48),
        ) {
            // Two transactions a block, so a backlog of pending records
            // builds up.
            let config = ChainConfig {
                max_block_txs: 2,
                verify_signatures: false,
                ..config()
            };
            let wal = mem_wal(4);
            let mut node = Node::new(config.clone());
            node.register_contract(Box::new(KvStoreContract));
            node.set_journal(Box::new(WalJournal::new(wal.clone())));
            // A peer mining its own fork from genesis: its blocks reach
            // this node as side-chain blocks, or as reorgs once its fork
            // is the heavier one.
            let mut peer = Node::new(config.clone());
            peer.register_contract(Box::new(KvStoreContract));
            let kp = Keypair::from_seed(b"persist-prop");
            let peer_kp = Keypair::from_seed(b"persist-peer");
            for (step, op) in ops.iter().enumerate() {
                let now = 1_000 + step as u64;
                // No two transactions alike, whatever a reorg does to nonces.
                let payload = step.to_be_bytes().to_vec();
                match op {
                    0..=3 => {
                        node.submit_call(&kp, "kvstore", "put", payload).unwrap();
                    }
                    4 | 5 => {
                        node.mine_block(now).unwrap();
                    }
                    6 => {
                        // The peer's block carries a transaction of its
                        // own and the oldest one pending here, if any.
                        if let Some(tx) = node.pending_transactions().next() {
                            let _ = peer.submit_transaction(tx.clone());
                        }
                        peer.submit_call(&peer_kp, "kvstore", "put", payload).unwrap();
                        let block = peer.mine_block(now).unwrap().clone();
                        node.receive_block(block).unwrap();
                    }
                    _ => {
                        let live = state(&node);
                        drop(node);
                        wal.borrow_mut().simulate_crash().unwrap();
                        node = recovered(&wal.borrow(), &config);
                        prop_assert_eq!(state(&node), live, "crash at step {}", step);
                        node.set_journal(Box::new(WalJournal::new(wal.clone())));
                    }
                }
            }
            let live = state(&node);
            drop(node);
            prop_assert_eq!(state(&recovered(&wal.borrow(), &config)), live);
        }
    }

    /// A transaction pending here that only a peer's side-chain block
    /// includes stays in the live node's pool, so it must be in the pool
    /// of the node recovered from the journal. With `promote`, a
    /// later peer block makes that side chain the main chain first.
    fn side_chain_block_includes_a_pending_tx(promote: bool) {
        let (mut node, wal) = journaled_node();
        let mut peer = Node::new(config());
        peer.register_contract(Box::new(KvStoreContract));
        node.mine_block(1).unwrap();
        let kp = Keypair::from_seed(b"persist-tests");
        let tx = Transaction::new_signed(&kp, 0, "kvstore", "put", b"side".to_vec());
        node.submit_transaction(tx.clone()).unwrap();
        peer.submit_transaction(tx.clone()).unwrap();
        let side = peer.mine_block(2).unwrap().clone();
        assert_eq!(node.receive_block(side), Ok(ImportOutcome::SideChain));
        if promote {
            let next = peer.mine_block(3).unwrap().clone();
            assert_eq!(
                node.receive_block(next),
                Ok(ImportOutcome::Reorg { depth: 1 })
            );
        }
        let live = state(&node);
        assert_eq!(live.3, [tx.id()], "the live pool still holds it");
        assert_eq!(state(&recovered(&wal.borrow(), &config())), live);
        wal.borrow_mut().simulate_crash().unwrap();
        assert_eq!(state(&recovered(&wal.borrow(), &config())), live);
    }

    #[test]
    fn a_pending_tx_only_a_side_chain_block_includes_survives_recovery() {
        side_chain_block_includes_a_pending_tx(false);
    }

    #[test]
    fn a_side_chain_block_a_reorg_promotes_recovers_the_live_pool() {
        side_chain_block_includes_a_pending_tx(true);
    }

    #[test]
    fn a_withheld_transaction_is_resurrected_in_its_original_place() {
        let wal = mem_wal(8);
        let mut node = Node::new(mid_life_config());
        node.register_contract(Box::new(KvStoreContract));
        node.set_journal(Box::new(WalJournal::new(wal.clone())));
        let kp = Keypair::from_seed(b"persist-tests");
        let ids: Vec<TxId> = ["a", "b", "c", "d"]
            .iter()
            .map(|tag| {
                node.submit_call(&kp, "kvstore", "put", tag.as_bytes().to_vec())
                    .unwrap()
            })
            .collect();
        // The block takes b and c from behind the withheld a; replay
        // takes exactly those, so a is back, in front of d.
        node.withhold_transaction(&ids[0]).unwrap();
        node.mine_block(1).unwrap();
        assert_eq!(state(&node).3, [ids[3]]);
        assert_eq!(
            state(&recovered(&wal.borrow(), &mid_life_config())).3,
            [ids[0], ids[3]]
        );
    }

    /// A journal holding one accepted transaction and, behind it, the
    /// record under test.
    fn journal_with(tx: &Transaction, record: &[u8]) -> Rc<RefCell<Wal>> {
        let wal = mem_wal(8);
        WalJournal::new(wal.clone()).record_transaction(tx).unwrap();
        wal.borrow_mut().append(record).unwrap();
        wal
    }

    fn recover_unit(wal: &Wal, config: ChainConfig) -> Result<(), StoreError> {
        recover_node(wal, config, vec![Box::new(KvStoreContract)]).map(|_| ())
    }

    #[test]
    fn a_mined_record_naming_a_tx_not_pending_or_another_root_fails_replay() {
        let kp = Keypair::from_seed(b"persist-tests");
        let (held, other) = (
            Transaction::new_signed(&kp, 0, "kvstore", "put", b"held".to_vec()),
            Transaction::new_signed(&kp, 0, "kvstore", "put", b"other".to_vec()),
        );
        let genesis = Node::new(config()).chain().tip_hash();
        let mined = |block: &Block| {
            let wal = mem_wal(8);
            WalJournal::new(wal.clone()).record_mined(block).unwrap();
            let record = journal_of(&wal.borrow()).remove(0);
            record
        };
        // Names a transaction never accepted here.
        let block = Block::mine(genesis, 1, vec![other.clone()], 1, 0);
        let wal = journal_with(&held, &mined(&block));
        assert_eq!(
            recover_unit(&wal.borrow(), config()),
            Err(StoreError::Codec(format!(
                "journal record 1 does not replay: {}",
                ChainError::NotPending(other.id())
            )))
        );
        // Names the pending transaction under a header that commits to
        // another one.
        let forged = Block {
            header: block.header,
            transactions: vec![held.clone()],
        };
        let wal = journal_with(&held, &mined(&forged));
        assert_eq!(
            recover_unit(&wal.borrow(), config()),
            Err(StoreError::Codec(format!(
                "journal record 1 does not replay: {}",
                ChainError::BadTxRoot
            )))
        );
    }

    /// The records of one accepted transaction and the block that mined
    /// it, built once.
    fn mined_journal() -> &'static [Vec<u8>] {
        static RECORDS: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
        RECORDS.get_or_init(|| {
            let (mut node, wal) = journaled_node();
            let kp = Keypair::from_seed(b"persist-tests");
            node.submit_call(&kp, "kvstore", "put", b"a".to_vec())
                .unwrap();
            node.mine_block(1).unwrap();
            let records = journal_of(&wal.borrow());
            records
        })
    }

    #[test]
    fn a_mined_record_cut_short_is_a_codec_error_naming_it() {
        let [tx_record, mined] = mined_journal() else {
            unreachable!()
        };
        assert_eq!(mined[0], TAG_MINED);
        let tx = Transaction::from_canonical_bytes(&tx_record[1..]).unwrap();
        for cut in 1..mined.len() {
            let reason = decode_mined(&mined[1..cut]).unwrap_err();
            let wal = journal_with(&tx, &mined[..cut]);
            assert_eq!(
                recover_unit(&wal.borrow(), config()),
                Err(StoreError::Codec(format!("journal record 1: {reason}"))),
                "cut at {cut}"
            );
        }
        let wal = journal_with(&tx, mined);
        assert_eq!(recover_unit(&wal.borrow(), config()), Ok(()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any bytes behind tag 3 — a real mined record's opening, cut
        /// anywhere, then noise — recover a node or fail as a typed
        /// error; recovery never panics.
        #[test]
        fn arbitrary_bytes_behind_the_mined_tag_never_panic_recovery(
            keep in 0usize..200,
            noise in prop::collection::vec(any::<u8>(), 0..96),
        ) {
            let [tx_record, mined] = mined_journal() else { unreachable!() };
            let payload = &mined[1..];
            let record = [&[TAG_MINED], &payload[..keep.min(payload.len())], noise.as_slice()].concat();
            let wal = mem_wal(8);
            wal.borrow_mut().append(tx_record).unwrap();
            wal.borrow_mut().append(&record).unwrap();
            let config = ChainConfig {
                verify_signatures: false,
                ..config()
            };
            let outcome = recover_unit(&wal.borrow(), config);
            match outcome {
                Ok(()) | Err(StoreError::Codec(_)) => {}
                Err(other) => prop_assert!(false, "{other:?}"),
            }
        }
    }

    // -- the journal is its segments ----------------------------------------

    fn open(medium: &FaultyBackend) -> Wal {
        let config = WalConfig {
            segment_records: 4,
            durability: Durability::Flushed,
        };
        Wal::open(Box::new(medium.clone()), config).unwrap()
    }

    fn mid_life_config() -> ChainConfig {
        ChainConfig {
            max_block_txs: 2,
            ..config()
        }
    }

    #[test]
    fn a_block_record_that_does_not_decode_fails_recovery_at_its_seq() {
        let kp = Keypair::from_seed(b"persist-tests");
        let tx = Transaction::new_signed(&kp, 0, "kvstore", "put", b"a".to_vec());
        let block = Block::mine(Digest::ZERO, 0, vec![tx.clone()], 0, 0).to_canonical_bytes();
        for garbage in [&[1, 2, 3][..], &block[..block.len() - 1]] {
            let wal = journal_with(&tx, &[&[TAG_BLOCK], garbage].concat());
            let reason = Block::from_canonical_bytes(garbage).unwrap_err();
            assert_eq!(
                recover_unit(&wal.borrow(), config()),
                Err(StoreError::Codec(format!("journal record 1: {reason}")))
            );
        }
    }

    /// A journal an older layout compacted kept a manifest in the snapshot
    /// file and the compacted records in a second file beside the
    /// segments, and pruned the segments it covered. Segments alone do not
    /// describe that node, so recovery refuses it — naming the file in its
    /// way — rather than migrate it or recover a node missing its prefix.
    #[test]
    fn a_compacted_journal_is_refused_not_migrated() {
        let refused = |medium: &FaultyBackend, file: &str| match recover_node(
            &open(medium),
            config(),
            vec![Box::new(KvStoreContract)],
        ) {
            Err(StoreError::Corrupt { file: named, .. }) => assert_eq!(named, file),
            other => panic!(
                "{file}: expected a typed refusal, got {:?}",
                other.map(|_| ())
            ),
        };
        let medium = FaultyBackend::default();
        let wal = Rc::new(RefCell::new(open(&medium)));
        let mut node = Node::new(config());
        node.register_contract(Box::new(KvStoreContract));
        node.set_journal(Box::new(WalJournal::new(wal.clone())));
        let kp = Keypair::from_seed(b"persist-tests");
        for i in 0..3 {
            node.submit_call(&kp, "kvstore", "put", vec![i]).unwrap();
            node.mine_block(u64::from(i)).unwrap();
        }
        drop(node);
        assert_eq!(wal.borrow().segment_count(), 2);
        let whole = medium.copy();

        // A file beside the segments: the manifest, or any other.
        wal.borrow_mut().write_snapshot(4, &[3; 17]).unwrap();
        refused(&medium, SNAPSHOT_FILE);
        let other = whole.copy();
        other.0.borrow_mut().files.append("notes", b"x").unwrap();
        refused(&other, "notes");

        // The segments it covered pruned, the manifest gone with them.
        wal.borrow_mut().prune_through(4).unwrap();
        medium.0.borrow_mut().files.remove(SNAPSHOT_FILE).unwrap();
        refused(&medium, &segment_file_name(1));

        // The whole journal recovers.
        assert!(recover_node(&open(&whole), config(), vec![Box::new(KvStoreContract)]).is_ok());
    }
}
