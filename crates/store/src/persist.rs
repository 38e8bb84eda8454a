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
//! The journal only grows, so [`compact_node_journal`] keeps it in three
//! files and pays, per call, for what was journaled since the last call:
//!
//! ```text
//!  fold file (append-only)      manifest (replaced atomically)   live segments
//! ┌──────────────────────────┐ ┌──────────────────────────────┐ ┌─────────────┐
//! │ every record journaled   │ │ base_seq · fold_len · count  │ │ records     │
//! │ before base_seq, framed  │ │                              │ │ >= base_seq │
//! └──────────────────────────┘ └──────────────────────────────┘ └─────────────┘
//!        replayed first                                          replayed last
//! ```
//!
//! The manifest is the WAL's snapshot file and the commit point: the fold
//! file counts only as far as the manifest's `fold_len`, so a compaction
//! that died after appending to it and before replacing the manifest
//! changed nothing. A compaction moves frames and nothing else: each live
//! record reaches the fold file in the very frame the WAL walk verified,
//! decoded, hashed and checksummed again by nothing.
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
use crate::segment::FRAME_LEN;
use crate::wal::{Wal, FOLD_FILE, SNAPSHOT_FILE};
use drams_chain::block::{Block, BlockHeader};
use drams_chain::chain::ChainConfig;
use drams_chain::contract::SmartContract;
use drams_chain::error::ChainError;
use drams_chain::node::{Node, NodeJournal};
use drams_chain::tx::{Transaction, TxId};
use drams_crypto::codec::{decode_seq, Decode, Encode, Reader, Writer};
use drams_crypto::CryptoError;
use std::cell::RefCell;
use std::fmt::Display;
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

/// Replays one tagged journal record into `node`. `origin` names the
/// record in error messages (a WAL sequence number, a fold-file offset).
fn replay_record(node: &mut Node, origin: impl Display, record: &[u8]) -> Result<(), StoreError> {
    let Some((&tag, payload)) = record.split_first() else {
        return Err(StoreError::Codec(format!("empty journal record {origin}")));
    };
    let malformed = |e: CryptoError| StoreError::Codec(format!("journal record {origin}: {e}"));
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
                "journal record {origin} has unknown tag {other}"
            )))
        }
    };
    replayed.map_err(|e| StoreError::Codec(format!("journal record {origin} does not replay: {e}")))
}

/// Layout byte opening the manifest payload. Layout 2 carried pending
/// transaction records behind its header, and the layout before it was
/// the whole folded journal packed into the snapshot, which opened with
/// the high byte of a record length (0); both are refused, not migrated.
const MANIFEST_LAYOUT: u8 = 3;
/// The whole manifest payload: layout byte, committed fold length,
/// folded record count.
const MANIFEST_LEN: usize = 1 + 8 + 8;

/// The journal's commit point, read from the WAL's snapshot file: what
/// of the journal is folded, and where the folded part is.
#[derive(Debug, Default)]
struct Manifest {
    /// Records with `seq < base_seq` are folded; the rest are live.
    base_seq: u64,
    /// Committed length of the fold file in bytes.
    fold_len: u64,
    /// Records in the committed part of the fold file.
    fold_records: u64,
}

impl Manifest {
    /// The manifest of `wal`; of a journal never compacted, the empty one.
    fn read(wal: &Wal) -> Result<Manifest, StoreError> {
        let Some((base_seq, payload)) = wal.read_snapshot()? else {
            return Ok(Manifest::default());
        };
        let malformed = |reason: String| {
            StoreError::Codec(format!("journal manifest `{SNAPSHOT_FILE}`: {reason}"))
        };
        let Some((header, rest)) = payload.split_first_chunk::<MANIFEST_LEN>() else {
            return Err(malformed(format!(
                "payload of {} bytes is shorter than its {MANIFEST_LEN}-byte header",
                payload.len()
            )));
        };
        let layout = header[0];
        if layout != MANIFEST_LAYOUT {
            return Err(malformed(format!(
                "payload byte 0: layout {layout} is not the supported {MANIFEST_LAYOUT}"
            )));
        }
        if !rest.is_empty() {
            return Err(malformed(format!(
                "{} bytes trail its {MANIFEST_LEN}-byte payload",
                rest.len()
            )));
        }
        let word = |at: usize| u64::from_be_bytes(header[at..at + 8].try_into().expect("8 bytes"));
        Ok(Manifest {
            base_seq,
            fold_len: word(1),
            fold_records: word(9),
        })
    }

    /// Writes the manifest: from here on the journal is what it names.
    fn commit(&self, wal: &mut Wal) -> Result<(), StoreError> {
        let mut payload = [0; MANIFEST_LEN];
        payload[0] = MANIFEST_LAYOUT;
        payload[1..9].copy_from_slice(&self.fold_len.to_be_bytes());
        payload[9..].copy_from_slice(&self.fold_records.to_be_bytes());
        wal.write_snapshot(self.base_seq, &payload)
    }
}

#[cfg(test)]
thread_local! {
    /// What the compactions on the current test thread touched:
    /// `[records visited, bytes appended to the fold file]`.
    static WORK: std::cell::Cell<[u64; 2]> = const { std::cell::Cell::new([0; 2]) };
}

/// The work [`compact_node_journal`] does while `f` runs, for tests that
/// pin its cost to what was journaled since the previous compaction. Per
/// thread, so parallel tests do not disturb each other's count.
#[cfg(test)]
fn count_work<T>(f: impl FnOnce() -> T) -> ([u64; 2], T) {
    let before = WORK.get();
    let out = f();
    let after = WORK.get();
    (std::array::from_fn(|i| after[i] - before[i]), out)
}

#[cfg(test)]
fn add_work(records: u64, bytes: u64) {
    let [r, y] = WORK.get();
    WORK.set([r + records, y + bytes]);
}

/// Compacts a node journal in place, at a cost set by what was journaled
/// since the previous compaction and not by the length of the chain.
///
/// No record is ever redundant — each is an input the node took once —
/// so a compaction moves the live records into the fold file (see the
/// module docs) and drops none. One call
///
/// 1. reads the manifest and seals the tail segment (`Wal::seal_tail`),
///    so that everything journaled so far can leave the live log;
/// 2. moves the live records onto the fold file (`Wal::fold_from`, which
///    first cuts off what a compaction that never committed left
///    behind): one live segment at a time, it verifies the segment's
///    frames as the WAL walk does ([`Wal::visit_from`]) and appends its
///    run of live frames as it stands, in one append — nothing is
///    decoded, hashed or checksummed again, recovery is the one to name
///    a record it cannot replay, and no more than one segment's bytes
///    are held at once;
/// 3. syncs the fold file, once, after the last append;
/// 4. writes the manifest — **the commit point** — naming the new fold
///    length and record count;
/// 5. prunes the live segments the manifest now covers.
///
/// A crash before step 4 — between two of step 2's appends included —
/// leaves the old manifest, the old committed part of the fold file and
/// every live record: nothing happened. A crash
/// after it leaves segments that the manifest's sequence number already
/// excludes from replay, and the next call prunes them. Recovery through
/// [`recover_node`] reads the same records in the same order either way.
///
/// Returns `(records_before, records_after)`, the journal's record count
/// (folded + live) on either side of the call — equal, since nothing is
/// dropped.
///
/// # Errors
///
/// As [`recover_node`] for a damaged WAL or manifest, and for a manifest
/// in an older layout; [`StoreError::Corrupt`] when the fold file is
/// shorter than the manifest commits; [`StoreError::Io`] on backend
/// failure while writing.
pub fn compact_node_journal(wal: &mut Wal) -> Result<(u64, u64), StoreError> {
    let manifest = Manifest::read(wal)?;
    wal.seal_tail()?;
    let (live, fold_len) = wal.fold_from(manifest.fold_len, manifest.base_seq)?;
    #[cfg(test)]
    add_work(live, fold_len - manifest.fold_len);

    let records = manifest.fold_records + live;
    let upto = wal.next_seq();
    Manifest {
        base_seq: upto,
        fold_len,
        fold_records: records,
    }
    .commit(wal)?;
    wal.prune_through(upto)?;
    Ok((records, records))
}

/// Rebuilds a node from its journal: a fresh node with `config` and
/// `contracts` registered, then every journaled record replayed in
/// journal order — the committed part of the fold file, then the live
/// WAL records (see [`compact_node_journal`]; a journal never compacted
/// has only the latter). The returned node carries **no** journal —
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
/// [`StoreError::Corrupt`] when the WAL or the fold file is damaged
/// (naming the file and the offset), [`StoreError::Codec`] when the
/// manifest is malformed or in an older layout, or when a record does
/// not decode or does not replay (naming its WAL sequence number or its
/// fold-file offset).
pub fn recover_node(
    wal: &Wal,
    config: ChainConfig,
    contracts: Vec<Box<dyn SmartContract>>,
) -> Result<Node, StoreError> {
    let mut node = Node::new(config);
    for contract in contracts {
        node.register_contract(contract);
    }
    let manifest = Manifest::read(wal)?;
    let folded = wal.visit_fold(manifest.fold_len, |offset, record| {
        replay_record(&mut node, format_args!("`{FOLD_FILE}`@{offset}"), record)
    })?;
    if folded != manifest.fold_records {
        return Err(StoreError::Corrupt {
            file: FOLD_FILE.to_string(),
            offset: manifest.fold_len,
            reason: format!(
                "{folded} records in the committed part, the manifest counts {}",
                manifest.fold_records
            ),
        });
    }
    wal.visit_from(manifest.base_seq, |seq, frame| {
        replay_record(&mut node, seq, &frame[FRAME_LEN..])
    })?;
    Ok(node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, Durability, MemBackend};
    use crate::segment::frame_record;
    use crate::wal::WalConfig;
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

    #[test]
    fn compaction_is_idempotent_and_composes_with_later_appends() {
        let (mut node, wal) = journaled_node();
        let kp = Keypair::from_seed(b"persist-tests");
        node.submit_call(&kp, "kvstore", "put", b"a".to_vec())
            .unwrap();
        node.mine_block(1).unwrap();
        drop(node);

        compact_node_journal(&mut wal.borrow_mut()).unwrap();
        let (before, after) = compact_node_journal(&mut wal.borrow_mut()).unwrap();
        assert_eq!(before, after, "second pass finds nothing to fold");

        // New activity after compaction lands in the live tail and a
        // second compaction folds it too.
        let mut node =
            recover_node(&wal.borrow(), config(), vec![Box::new(KvStoreContract)]).unwrap();
        node.set_journal(Box::new(WalJournal::new(wal.clone())));
        node.submit_call(&kp, "kvstore", "put", b"b".to_vec())
            .unwrap();
        node.mine_block(2).unwrap();
        let tip = node.chain().tip_hash();
        drop(node);
        compact_node_journal(&mut wal.borrow_mut()).unwrap();
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

    /// A node journaling into two logs at once, so one can be compacted
    /// and the other kept whole.
    struct Tee(WalJournal, WalJournal);

    impl NodeJournal for Tee {
        fn record_transaction(&mut self, tx: &Transaction) -> Result<(), String> {
            self.0.record_transaction(tx)?;
            self.1.record_transaction(tx)
        }
        fn record_mined(&mut self, block: &Block) -> Result<(), String> {
            self.0.record_mined(block)?;
            self.1.record_mined(block)
        }
        fn record_block(&mut self, block: &Block) -> Result<(), String> {
            self.0.record_block(block)?;
            self.1.record_block(block)
        }
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

        /// Whatever the interleaving, the compacted journal recovers the
        /// node the whole journal recovers, which is the live node.
        #[test]
        fn incremental_compaction_recovers_what_the_whole_journal_recovers(
            ops in prop::collection::vec(0u8..10, 1..48),
        ) {
            // Two transactions a block, so a backlog of pending records
            // is carried from compaction to compaction.
            let config = ChainConfig {
                max_block_txs: 2,
                verify_signatures: false,
                ..config()
            };
            let (compacted, whole) = (mem_wal(4), mem_wal(4));
            let tee = || {
                let (a, b) = (compacted.clone(), whole.clone());
                Box::new(Tee(WalJournal::new(a), WalJournal::new(b)))
            };
            let mut node = Node::new(config.clone());
            node.register_contract(Box::new(KvStoreContract));
            node.set_journal(tee());
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
                    7 | 8 => {
                        let (before, after) =
                            compact_node_journal(&mut compacted.borrow_mut()).unwrap();
                        let journaled = journal_of(&whole.borrow()).len() as u64;
                        prop_assert_eq!((before, after), (journaled, journaled), "step {}", step);
                    }
                    _ => {
                        let live = state(&node);
                        drop(node);
                        compacted.borrow_mut().simulate_crash().unwrap();
                        node = recovered(&compacted.borrow(), &config);
                        prop_assert_eq!(state(&node), live, "crash at step {}", step);
                        node.set_journal(tee());
                    }
                }
            }
            let live = state(&node);
            drop(node);
            prop_assert_eq!(state(&recovered(&compacted.borrow(), &config)), live.clone());
            prop_assert_eq!(state(&recovered(&whole.borrow(), &config)), live);
        }
    }

    /// A transaction pending here that only a peer's side-chain block
    /// includes stays in the live node's pool, so it must be in the pool
    /// of the node recovered from a compacted journal. With `promote`, a
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
        compact_node_journal(&mut wal.borrow_mut()).unwrap();
        assert_eq!(state(&recovered(&wal.borrow(), &config())), live);
        wal.borrow_mut().simulate_crash().unwrap();
        assert_eq!(state(&recovered(&wal.borrow(), &config())), live);
    }

    #[test]
    fn a_pending_tx_only_a_side_chain_block_includes_survives_compaction() {
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
        let expected = [ids[0], ids[3]];
        assert_eq!(
            state(&recovered(&wal.borrow(), &mid_life_config())).3,
            expected
        );
        compact_node_journal(&mut wal.borrow_mut()).unwrap();
        assert_eq!(
            state(&recovered(&wal.borrow(), &mid_life_config())).3,
            expected
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

    // -- the fold file: crash points, cost, bytes ----------------------------

    fn open(medium: &FaultyBackend) -> Wal {
        let config = WalConfig {
            segment_records: 4,
            durability: Durability::Flushed,
        };
        Wal::open(Box::new(medium.clone()), config).unwrap()
    }

    /// A journal with something in every place a compaction reads and
    /// writes — a committed fold, a sealed and a tail segment of live
    /// records, a transaction still pending — and the live node it
    /// describes.
    fn journal_mid_life() -> (FaultyBackend, NodeState) {
        let medium = FaultyBackend::default();
        let wal = Rc::new(RefCell::new(open(&medium)));
        let mut node = Node::new(mid_life_config());
        node.register_contract(Box::new(KvStoreContract));
        node.set_journal(Box::new(WalJournal::new(wal.clone())));
        let kp = Keypair::from_seed(b"persist-tests");
        let put = |node: &mut Node, tag: &str| {
            node.submit_call(&kp, "kvstore", "put", tag.as_bytes().to_vec())
                .unwrap();
        };
        for tag in ["a", "b", "c"] {
            put(&mut node, tag);
        }
        node.mine_block(1).unwrap();
        compact_node_journal(&mut wal.borrow_mut()).unwrap(); // folds a, b, c and block 1
        put(&mut node, "d");
        node.mine_block(2).unwrap(); // c, d
        put(&mut node, "e");
        node.mine_block(3).unwrap();
        put(&mut node, "f");
        assert_eq!(wal.borrow().segment_count(), 2);
        let live = state(&node);
        assert_eq!(live.3.len(), 1);
        (medium, live)
    }

    fn mid_life_config() -> ChainConfig {
        ChainConfig {
            max_block_txs: 2,
            ..config()
        }
    }

    #[test]
    fn compaction_changes_the_medium_in_commit_order() {
        let (medium, _) = journal_mid_life();
        let mut wal = open(&medium);
        medium.0.borrow_mut().changes.clear();
        assert_eq!(compact_node_journal(&mut wal).unwrap(), (4 + 5, 4 + 5));
        let [sealed, tail, fresh] = [1, 2, 3].map(segment_file_name);
        assert_eq!(
            medium.0.borrow().changes,
            [
                // The tail is sealed: durable before its successor exists.
                format!("sync {tail}"),
                format!("append {fresh}"),
                format!("sync {fresh}"),
                // The fold grows by one append per live segment and is
                // durable...
                format!("append {FOLD_FILE}"),
                format!("append {FOLD_FILE}"),
                format!("sync {FOLD_FILE}"),
                // ...before the manifest commits it...
                format!("write_atomic {SNAPSHOT_FILE}"),
                // ...and only then do the folded records leave the log.
                format!("remove {sealed}"),
                format!("remove {tail}"),
            ]
        );
    }

    #[test]
    fn a_crash_at_every_step_of_a_compaction_recovers_the_uncompacted_node() {
        let (pristine, live) = journal_mid_life();
        let next_seq = open(&pristine).next_seq();
        // The compaction that runs to the end: the yardstick for what a
        // compaction retried after a crash must leave.
        let clean = pristine.copy();
        let counts = compact_node_journal(&mut open(&clean)).unwrap();
        let steps = clean.0.borrow().changes.len();
        assert_eq!(
            steps, 9,
            "see compaction_changes_the_medium_in_commit_order"
        );
        let committed = pristine.len_of(FOLD_FILE);

        for crash_before in 0..=steps {
            // Steps 3, 4, 5, 6, 7 and 9 are the crashes with the tail
            // sealed, one of the two fold appends made, both made but not
            // synced, the fold synced, the manifest written, and the
            // segments pruned.
            let medium = pristine.copy();
            let mut wal = open(&medium);
            medium.fail_after(crash_before);
            let outcome = compact_node_journal(&mut wal);
            assert_eq!(outcome.is_ok(), crash_before == steps, "{outcome:?}");
            medium.0.borrow_mut().fail_at = None;
            wal.simulate_crash().unwrap();

            let at = format!("crash before step {crash_before}");
            assert_eq!(wal.next_seq(), next_seq, "{at}");
            let node = recovered(&wal, &mid_life_config());
            assert_eq!(state(&node), live, "{at}");
            let torn = medium.len_of(FOLD_FILE) > committed && crash_before < 7;
            assert_eq!(
                torn,
                crash_before == 6,
                "{at}: only a synced append outlives"
            );

            // The next compaction cuts the torn append off and proceeds.
            let retried = compact_node_journal(&mut wal).unwrap();
            assert_eq!(retried.1, counts.1, "{at}");
            assert_eq!(medium.len_of(FOLD_FILE), clean.len_of(FOLD_FILE), "{at}");
            assert_eq!(wal.segment_count(), 1, "{at}");
            wal.simulate_crash().unwrap();
            assert_eq!(wal.next_seq(), next_seq, "{at}");
            assert_eq!(state(&recovered(&wal, &mid_life_config())), live, "{at}");
        }
    }

    #[test]
    fn a_compaction_touches_what_was_journaled_since_the_last_one() {
        let kp = Keypair::from_seed(b"persist-tests");
        let tx = |nonce: u64| Transaction::new_signed(&kp, nonce, "kvstore", "put", vec![7; 40]);
        let block =
            |height: u64, txs: Vec<Transaction>| Block::mine(Digest::ZERO, height, txs, height, 0);
        let work_after = |history: u64| {
            let wal = mem_wal(256);
            let mut journal = WalJournal::new(wal.clone());
            // `history` folded records...
            for height in 0..history {
                journal.record_mined(&block(height, Vec::new())).unwrap();
            }
            assert_eq!(
                compact_node_journal(&mut wal.borrow_mut()).unwrap(),
                (history, history)
            );
            // ...then 64 records: 48 transactions and 16 mined blocks
            // that take two of them each.
            for round in 0..16 {
                let txs: Vec<Transaction> = (0..3).map(|i| tx(round * 3 + i)).collect();
                for tx in &txs {
                    journal.record_transaction(tx).unwrap();
                }
                journal
                    .record_mined(&block(history + round, txs[..2].to_vec()))
                    .unwrap();
            }
            let tail = wal.borrow().replay_from(history).unwrap();
            let appended: usize = tail.iter().map(|(_, r)| FRAME_LEN + r.len()).sum();
            let (work, counts) =
                count_work(|| compact_node_journal(&mut wal.borrow_mut()).unwrap());
            assert_eq!(counts, (history + 64, history + 64));
            (work, appended as u64)
        };
        let (small, appended) = work_after(1_024);
        assert_eq!(small, [64, appended], "records, fold bytes");
        assert_eq!(work_after(16_384).0, small, "whatever was folded before");
    }

    #[test]
    fn the_fold_file_and_manifest_hold_the_records_as_the_wal_framed_them() {
        let medium = FaultyBackend::default();
        let (compacted, whole) = (Rc::new(RefCell::new(open(&medium))), mem_wal(8));
        let mut node = Node::new(mid_life_config());
        node.register_contract(Box::new(KvStoreContract));
        node.set_journal(Box::new(Tee(
            WalJournal::new(compacted.clone()),
            WalJournal::new(whole.clone()),
        )));
        let kp = Keypair::from_seed(b"persist-tests");
        // Three transactions a round, two a block, a compaction every
        // other round: the last one folds the whole journal.
        for round in 0..6 {
            for i in 0..3 {
                node.submit_call(&kp, "kvstore", "put", format!("{round}.{i}").into_bytes())
                    .unwrap();
            }
            node.mine_block(round).unwrap();
            if round % 2 == 1 {
                compact_node_journal(&mut compacted.borrow_mut()).unwrap();
            }
        }
        assert_eq!(node.mempool_len(), 6);
        let records = journal_of(&whole.borrow());
        let mut fold = Vec::new();
        for record in &records {
            frame_record(record, &mut fold);
        }
        assert_eq!(medium.read(FOLD_FILE).unwrap(), fold);
        let manifest = [
            &[MANIFEST_LAYOUT][..],
            &(fold.len() as u64).to_be_bytes(),
            &(records.len() as u64).to_be_bytes(),
        ]
        .concat();
        assert_eq!(
            compacted.borrow().read_snapshot().unwrap(),
            Some((records.len() as u64, manifest))
        );
    }

    #[test]
    fn a_block_record_that_does_not_decode_fails_recovery_at_its_fold_offset() {
        let kp = Keypair::from_seed(b"persist-tests");
        let tx = Transaction::new_signed(&kp, 0, "kvstore", "put", b"a".to_vec());
        let block = Block::mine(Digest::ZERO, 0, vec![tx.clone()], 0, 0).to_canonical_bytes();
        for garbage in [&[1, 2, 3][..], &block[..block.len() - 1]] {
            let wal = journal_with(&tx, &[&[TAG_BLOCK], garbage].concat());
            // Compaction copies the record as it stands...
            assert_eq!(compact_node_journal(&mut wal.borrow_mut()), Ok((2, 2)));
            // ...and recovery names it where it now lies: in the fold
            // file, behind the transaction's frame.
            let offset = FRAME_LEN + 1 + tx.wire_len();
            let reason = Block::from_canonical_bytes(garbage).unwrap_err();
            assert_eq!(
                recover_unit(&wal.borrow(), config()),
                Err(StoreError::Codec(format!(
                    "journal record `{FOLD_FILE}`@{offset}: {reason}"
                )))
            );
        }
    }

    #[test]
    fn an_older_snapshot_layout_is_refused_not_migrated() {
        let (mut node, wal) = journaled_node();
        let kp = Keypair::from_seed(b"persist-tests");
        node.submit_call(&kp, "kvstore", "put", b"a".to_vec())
            .unwrap();
        drop(node);
        // Layout 0, the whole folded journal with each record behind its
        // length; layout 2, a header with the pending records behind it,
        // and with none.
        let mut packed = Vec::new();
        for record in journal_of(&wal.borrow()) {
            packed.extend_from_slice(&(record.len() as u32).to_be_bytes());
            packed.extend_from_slice(&record);
        }
        let header = [&[2][..], &0u64.to_be_bytes(), &0u64.to_be_bytes()].concat();
        let layout_2 = [header.as_slice(), &packed].concat();
        let upto = wal.borrow().next_seq();
        for (layout, old) in [(0, packed), (2, layout_2), (2, header)] {
            wal.borrow_mut().write_snapshot(upto, &old).unwrap();
            let recovery = recover_node(&wal.borrow(), config(), vec![]).map(|_| ());
            let compaction = compact_node_journal(&mut wal.borrow_mut()).map(|_| ());
            for outcome in [recovery, compaction] {
                match outcome {
                    Err(StoreError::Codec(reason)) => {
                        assert!(
                            reason.contains(SNAPSHOT_FILE)
                                && reason.contains(&format!("layout {layout} ")),
                            "{reason}"
                        );
                    }
                    other => panic!("expected a typed refusal, got {other:?}"),
                }
            }
        }
    }
}
