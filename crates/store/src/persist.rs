//! Chain-node persistence: the node's write-ahead journal and recovery.
//!
//! [`WalJournal`] implements [`drams_chain::node::NodeJournal`] over a
//! shared [`Wal`]: every transaction the node accepts and every block it
//! imports becomes one tagged, checksummed WAL record. [`recover_node`]
//! replays that log into a fresh node — transactions re-submitted, blocks
//! re-imported, in recorded order — reconstructing chain, contract state
//! *and* mempool exactly as they were when the journal was last synced.
//!
//! The journal only grows, so [`compact_node_journal`] keeps it in three
//! files and pays, per call, for what was journaled since the last call:
//!
//! ```text
//!  fold file (append-only)      manifest (replaced atomically)   live segments
//! ┌──────────────────────────┐ ┌──────────────────────────────┐ ┌─────────────┐
//! │ every block journaled    │ │ base_seq · fold_len · count  │ │ records     │
//! │ before base_seq, framed  │ │ pending TX records, packed   │ │ >= base_seq │
//! └──────────────────────────┘ └──────────────────────────────┘ └─────────────┘
//!        replayed first                 replayed second          replayed last
//! ```
//!
//! The manifest is the WAL's snapshot file and the commit point: the fold
//! file counts only as far as the manifest's `fold_len`, so a compaction
//! that died after appending to it and before replacing the manifest
//! changed nothing. Transaction records ride in the manifest because they
//! are the one part of the folded state that shrinks — a block journaled
//! later makes them redundant — and an append-only file cannot drop them.
//!
//! A compaction reads each live byte once and derives nothing it already
//! has: a block record reaches the fold file in the very frame the WAL
//! walk verified (no second CRC), and a transaction record is struck by
//! byte equality with a transaction that block carries (no SHA-256 on
//! either side).
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
use drams_chain::block::Block;
use drams_chain::chain::ChainConfig;
use drams_chain::contract::SmartContract;
use drams_chain::error::ChainError;
use drams_chain::node::{Node, NodeJournal};
use drams_chain::tx::{Transaction, SENDER_NONCE_LEN};
use drams_crypto::codec::{Decode, Encode, Writer};
use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt::Display;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::rc::Rc;

/// Record tag: the payload is a canonical [`Transaction`].
pub const TAG_TX: u8 = 1;
/// Record tag: the payload is a canonical [`Block`].
pub const TAG_BLOCK: u8 = 2;

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

    fn record(&mut self, tag: u8, payload: &dyn Encode) -> Result<(), String> {
        let mut record = Writer::with_capacity(256);
        record.put_u8(tag);
        payload.encode(&mut record);
        self.wal
            .borrow_mut()
            .append(&record.into_bytes())
            .map(|_| ())
            .map_err(|e| e.to_string())
    }
}

impl NodeJournal for WalJournal {
    fn record_transaction(&mut self, tx: &Transaction) -> Result<(), String> {
        self.record(TAG_TX, tx)
    }

    fn record_block(&mut self, block: &Block) -> Result<(), String> {
        self.record(TAG_BLOCK, block)
    }
}

/// Replays one tagged journal record into `node`. `origin` names the
/// record in error messages (a WAL sequence number, a fold-file offset).
fn replay_record(node: &mut Node, origin: impl Display, record: &[u8]) -> Result<(), StoreError> {
    let Some((&tag, payload)) = record.split_first() else {
        return Err(StoreError::Codec(format!("empty journal record {origin}")));
    };
    match tag {
        TAG_TX => {
            let tx = Transaction::from_canonical_bytes(payload)
                .map_err(|e| StoreError::Codec(format!("journal record {origin}: {e}")))?;
            match node.submit_transaction(tx) {
                Ok(_) | Err(ChainError::DuplicateTransaction) => Ok(()),
                Err(e) => Err(StoreError::Codec(format!(
                    "journal record {origin} does not replay: {e}"
                ))),
            }
        }
        TAG_BLOCK => {
            let block = Block::from_canonical_bytes(payload)
                .map_err(|e| StoreError::Codec(format!("journal record {origin}: {e}")))?;
            node.receive_block(block).map(|_| ()).map_err(|e| {
                StoreError::Codec(format!("journal record {origin} does not replay: {e}"))
            })
        }
        other => Err(StoreError::Codec(format!(
            "journal record {origin} has unknown tag {other}"
        ))),
    }
}

/// Layout byte opening the manifest payload. The layout before it was the
/// whole folded journal packed into the snapshot, which opened with the
/// high byte of a record length; such a payload is refused, not migrated.
const MANIFEST_LAYOUT: u8 = 2;
/// Layout byte, committed fold length, folded record count.
const MANIFEST_HEADER_LEN: usize = 1 + 8 + 8;

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
    /// The folded transaction records no folded block includes, in
    /// journal order, each behind a `u32` length.
    pending: Vec<u8>,
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
        let header = payload.split_first_chunk::<1>().and_then(|(layout, rest)| {
            let (fold_len, rest) = rest.split_first_chunk::<8>()?;
            let (fold_records, pending) = rest.split_first_chunk::<8>()?;
            Some((layout[0], *fold_len, *fold_records, pending))
        });
        let Some((layout, fold_len, fold_records, pending)) = header else {
            return Err(malformed(format!(
                "payload of {} bytes is shorter than its {MANIFEST_HEADER_LEN}-byte header",
                payload.len()
            )));
        };
        if layout != MANIFEST_LAYOUT {
            return Err(malformed(format!(
                "payload byte 0: layout {layout} is not the supported {MANIFEST_LAYOUT}"
            )));
        }
        Ok(Manifest {
            base_seq,
            fold_len: u64::from_be_bytes(fold_len),
            fold_records: u64::from_be_bytes(fold_records),
            pending: pending.to_vec(),
        })
    }

    /// Writes the manifest: from here on the journal is what it names.
    fn commit<'a>(
        wal: &mut Wal,
        base_seq: u64,
        fold_len: u64,
        fold_records: u64,
        pending: impl Iterator<Item = &'a [u8]>,
    ) -> Result<(), StoreError> {
        let mut payload = vec![MANIFEST_LAYOUT];
        payload.extend_from_slice(&fold_len.to_be_bytes());
        payload.extend_from_slice(&fold_records.to_be_bytes());
        for packed in pending {
            payload.extend_from_slice(packed);
        }
        wal.write_snapshot(base_seq, &payload)
    }
}

/// Appends `record` to `packed` behind its `u32` length; returns the span
/// the pair occupies.
fn pack_record(record: &[u8], packed: &mut Vec<u8>) -> Range<usize> {
    let start = packed.len();
    packed.extend_from_slice(&(record.len() as u32).to_be_bytes());
    packed.extend_from_slice(record);
    start..packed.len()
}

/// The transaction bytes of the TX record packed at `span`: what follows
/// its length and its tag.
fn packed_tx<'a>(packed: &'a [u8], span: &Range<usize>) -> &'a [u8] {
    packed[span.clone()].get(4 + 1..).unwrap_or_default()
}

/// A transaction's canonical encoding, hashed by its opening sender ‖
/// nonce bytes and compared whole. The codec is canonical, so equal bytes
/// are equal transaction ids, and nothing is hashed to find that out.
#[derive(PartialEq, Eq)]
struct TxBytes<'a>(&'a [u8]);

impl Hash for TxBytes<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0[..self.0.len().min(SENDER_NONCE_LEN)].hash(state);
    }
}

/// Lends each record of a [`pack_record`] run to `visit`, with the span
/// it and its length occupy.
fn visit_packed<'a>(
    packed: &'a [u8],
    mut visit: impl FnMut(Range<usize>, &'a [u8]) -> Result<(), StoreError>,
) -> Result<(), StoreError> {
    let mut at = 0;
    let mut rest = packed;
    while !rest.is_empty() {
        let split = rest
            .split_first_chunk::<4>()
            .and_then(|(len, rest)| rest.split_at_checked(u32::from_be_bytes(*len) as usize));
        let Some((record, after)) = split else {
            return Err(StoreError::Codec(format!(
                "journal manifest `{SNAPSHOT_FILE}`: pending record at payload byte {} \
                 is truncated",
                MANIFEST_HEADER_LEN + at
            )));
        };
        let end = at + 4 + record.len();
        visit(at..end, record)?;
        at = end;
        rest = after;
    }
    Ok(())
}

#[cfg(test)]
thread_local! {
    /// What the compactions on the current test thread touched:
    /// `[records visited, blocks decoded, bytes appended to the fold file]`.
    static WORK: std::cell::Cell<[u64; 3]> = const { std::cell::Cell::new([0; 3]) };
}

/// The work [`compact_node_journal`] does while `f` runs, for tests that
/// pin its cost to what was journaled since the previous compaction. Per
/// thread, so parallel tests do not disturb each other's count.
#[cfg(test)]
fn count_work<T>(f: impl FnOnce() -> T) -> ([u64; 3], T) {
    let before = WORK.get();
    let out = f();
    let after = WORK.get();
    (std::array::from_fn(|i| after[i] - before[i]), out)
}

#[cfg(test)]
fn add_work(records: u64, blocks: u64, bytes: u64) {
    let [r, b, y] = WORK.get();
    WORK.set([r + records, b + blocks, y + bytes]);
}

/// Compacts a node journal in place, at a cost set by what was journaled
/// since the previous compaction and not by the length of the chain.
///
/// A transaction record is redundant once a block journaled after it
/// includes the transaction (the block replays it); every other record
/// is kept. The kept records live in two places (see the module docs):
/// blocks are appended to the fold file, transaction records still
/// pending are packed into the manifest, which replaces the WAL's
/// snapshot file. One call
///
/// 1. reads the manifest and seals the tail segment ([`Wal::seal_tail`]),
///    so that everything journaled so far can leave the live log;
/// 2. visits the live records once, in order, each as the frame the WAL
///    walk has just verified ([`Wal::visit_from`]): a transaction record
///    joins the pending list as it stands; a block record is decoded for
///    where its transactions' bytes sit ([`Block::transaction_spans`])
///    and strikes every pending record whose transaction bytes equal one
///    of them — looked up by their opening sender ‖ nonce bytes, compared
///    whole, which (the codec being canonical) compares transaction ids
///    without computing one — and keeps its verified frame for the fold
///    file, checksummed again by nothing;
/// 3. appends the framed blocks to the fold file and syncs it
///    ([`Wal::append_fold`], which first cuts off what a compaction that
///    never committed left behind);
/// 4. writes the manifest — **the commit point** — naming the new fold
///    length and carrying the pending records;
/// 5. prunes the live segments the manifest now covers.
///
/// A crash before step 4 leaves the old manifest, the old committed part
/// of the fold file and every live record: nothing happened. A crash
/// after it leaves segments that the manifest's sequence number already
/// excludes from replay, and the next call prunes them. Recovery through
/// [`recover_node`] is unchanged by compaction.
///
/// One limit, inherited from the full rewrite this replaced: compaction
/// sees the journal, not the fork choice, so a block the node imported as
/// a side chain strikes the records of the transactions it includes like
/// any other, although the node left them in its pool. A transaction
/// pending here and included only by a side-chain block is therefore
/// missing from the recovered pool. Telling the cases apart needs the
/// import outcome in the block record, which [`NodeJournal`] does not
/// carry.
///
/// Returns `(records_before, records_after)`, the journal's effective
/// record count (folded + pending + live) on either side of the call.
///
/// # Errors
///
/// As [`recover_node`] for a damaged WAL, manifest or block record, and
/// for a manifest in an older layout; [`StoreError::Corrupt`] when the
/// fold file is shorter than the manifest commits; [`StoreError::Io`] on
/// backend failure while writing.
pub fn compact_node_journal(wal: &mut Wal) -> Result<(u64, u64), StoreError> {
    let Manifest {
        base_seq,
        fold_len,
        fold_records,
        pending: mut packed,
    } = Manifest::read(wal)?;
    wal.seal_tail()?;

    // Pending transaction records in journal order, by span in `packed`.
    let mut pending: Vec<Range<usize>> = Vec::new();
    visit_packed(&packed, |span, _| {
        pending.push(span);
        Ok(())
    })?;
    let carried = pending.len() as u64;

    let mut frames = Vec::new();
    let (mut live, mut folded) = (0u64, 0u64);
    wal.visit_from(base_seq, |seq, frame| {
        live += 1;
        let record = &frame[FRAME_LEN..];
        if let Some((&TAG_TX, _)) = record.split_first() {
            pending.push(pack_record(record, &mut packed));
            return Ok(());
        }
        if let Some((&TAG_BLOCK, block)) = record.split_first() {
            let spans = Block::transaction_spans(block)
                .map_err(|e| StoreError::Codec(format!("journal record {seq}: {e}")))?;
            #[cfg(test)]
            add_work(0, 1, 0);
            if !pending.is_empty() && !spans.is_empty() {
                let included: HashSet<TxBytes> = spans
                    .into_iter()
                    .map(|span| TxBytes(&block[span]))
                    .collect();
                pending.retain(|span| !included.contains(&TxBytes(packed_tx(&packed, span))));
            }
        }
        // Whatever else it is, it is folded as it stands, in the frame
        // the walk has just verified; recovery is the one to name a
        // record it cannot replay.
        frames.extend_from_slice(frame);
        folded += 1;
        Ok(())
    })?;
    #[cfg(test)]
    add_work(carried + live, 0, frames.len() as u64);

    let fold_len = wal.append_fold(fold_len, &frames)?;
    let upto = wal.next_seq();
    Manifest::commit(
        wal,
        upto,
        fold_len,
        fold_records + folded,
        pending.iter().map(|span| &packed[span.clone()]),
    )?;
    wal.prune_through(upto)?;
    Ok((
        fold_records + carried + live,
        fold_records + folded + pending.len() as u64,
    ))
}

/// Rebuilds a node from its journal: a fresh node with `config` and
/// `contracts` registered, then every journaled record replayed — the
/// committed part of the fold file, then the manifest's pending
/// transaction records, then the live WAL records (see
/// [`compact_node_journal`]; a journal never compacted has only the
/// last). The returned node carries **no** journal — attach one (over the
/// same WAL) with [`Node::set_journal`] to keep journaling.
///
/// Compaction moves a pending transaction record behind every block
/// folded with or before it. That reaches the same node: replaying a
/// block never reads the mempool (it imports, then strikes its own
/// transactions from it), a pending record is by definition in no block
/// folded after it, and the mempool is first-in-first-out with
/// nothing but the duplicate check depending on its contents — so the
/// pool ends up holding the same transactions in the same order, and the
/// chain and contract state never saw the difference.
///
/// Replay tolerates exactly the benign duplicates write-ahead journaling
/// produces (a transaction journaled but then rejected by the mempool,
/// or pruned into a block earlier in the log); everything else — an
/// undecodable record, a block the chain refuses — is an error, because
/// it means the journal does not describe a state this node ever held.
///
/// # Errors
///
/// [`StoreError::Corrupt`] when the WAL or the fold file is damaged
/// (naming the file and the offset), [`StoreError::Codec`] when the
/// manifest is malformed or in an older layout, or when a record does
/// not decode or does not replay.
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
    visit_packed(&manifest.pending, |span, record| {
        let origin = format_args!("pending@{}", MANIFEST_HEADER_LEN + span.start);
        replay_record(&mut node, origin, record)
    })?;
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
    fn compaction_drops_included_tx_records_and_recovery_is_unchanged() {
        let (mut node, wal) = journaled_node();
        let kp = Keypair::from_seed(b"persist-tests");
        for i in 0..6 {
            node.submit_call(&kp, "kvstore", "put", format!("e{i}").into_bytes())
                .unwrap();
            node.mine_block(1_000 + i).unwrap();
        }
        // One pending tx must survive compaction verbatim.
        node.submit_call(&kp, "kvstore", "put", b"pending".to_vec())
            .unwrap();
        let tip = node.chain().tip_hash();
        let events = node.events().len();
        drop(node);

        let (before, after) = compact_node_journal(&mut wal.borrow_mut()).unwrap();
        // 7 tx records + 6 block records journaled; the 6 included tx
        // records fold away, the pending one and every block stay.
        assert_eq!(before, 13);
        assert_eq!(after, 7);
        assert_eq!(wal.borrow().segment_count(), 1, "sealed segments pruned");

        let recovered =
            recover_node(&wal.borrow(), config(), vec![Box::new(KvStoreContract)]).unwrap();
        assert_eq!(recovered.chain().tip_hash(), tip);
        assert_eq!(recovered.events().len(), events);
        assert_eq!(recovered.mempool_len(), 1, "pending tx survives compaction");
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

    // -- the fold file: equivalence, crash points, cost ---------------------

    use crate::backend::testing::FaultyBackend;
    use crate::wal::segment_file_name;
    use drams_chain::block::BlockHash;
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
                    .map(|(k, v)| (k.to_vec(), v.clone()))
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

    /// The compaction this module had before the fold file, kept as the
    /// oracle: over the *whole* journal, drop every transaction record
    /// whose transaction some journaled block includes.
    fn full_rewrite(records: &[Vec<u8>]) -> Vec<&Vec<u8>> {
        let mut included: HashSet<TxId> = HashSet::new();
        for record in records {
            if let Some((&TAG_BLOCK, payload)) = record.split_first() {
                let block = Block::from_canonical_bytes(payload).unwrap();
                included.extend(block.transactions.iter().map(Transaction::id));
            }
        }
        records
            .iter()
            .filter(|record| match record.split_first() {
                Some((&TAG_TX, payload)) => Transaction::from_canonical_bytes(payload)
                    .map(|tx| !included.contains(&tx.id()))
                    .unwrap_or(true),
                _ => true,
            })
            .collect()
    }

    fn journal_of(wal: &Wal) -> Vec<Vec<u8>> {
        wal.replay().unwrap().into_iter().map(|(_, r)| r).collect()
    }

    /// A node journaling into two logs at once, so one can be compacted
    /// and the other kept whole.
    struct Tee(WalJournal, WalJournal);

    impl NodeJournal for Tee {
        fn record_transaction(&mut self, tx: &Transaction) -> Result<(), String> {
            self.0.record_transaction(tx)?;
            self.1.record_transaction(tx)
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
        /// node the whole journal recovers, which is the node the oracle's
        /// rewrite of the whole journal recovers, which is the live node.
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
                        peer.submit_call(&peer_kp, "kvstore", "put", payload).unwrap();
                        let block = peer.mine_block(now).unwrap().clone();
                        node.receive_block(block).unwrap();
                    }
                    7 | 8 => {
                        let (_, after) =
                            compact_node_journal(&mut compacted.borrow_mut()).unwrap();
                        let kept = full_rewrite(&journal_of(&whole.borrow())).len() as u64;
                        prop_assert_eq!(after, kept, "effective records after step {}", step);
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
            prop_assert_eq!(state(&recovered(&whole.borrow(), &config)), live.clone());
            let mut oracle = Node::new(config.clone());
            oracle.register_contract(Box::new(KvStoreContract));
            let whole_journal = journal_of(&whole.borrow());
            for (i, record) in full_rewrite(&whole_journal).into_iter().enumerate() {
                replay_record(&mut oracle, i, record).unwrap();
            }
            prop_assert_eq!(state(&oracle), live);
        }
    }

    #[test]
    fn pending_tx_keeps_its_place_until_the_compaction_after_its_block() {
        let (mut node, wal) = journaled_node();
        let kp = Keypair::from_seed(b"persist-tests");
        let put = |node: &mut Node, tag: &str| {
            node.submit_call(&kp, "kvstore", "put", tag.as_bytes().to_vec())
                .unwrap()
        };
        // `held` is withheld from every block (the Byzantine-drop hook
        // takes it out of the pool; the journal keeps it), so it stays a
        // pending record while blocks are folded around it.
        let first = put(&mut node, "first");
        let held = put(&mut node, "held");
        let held_tx = node.withhold_transaction(&held).unwrap();
        node.mine_block(1).unwrap();
        let mut effective = Vec::new();
        for round in 0..4 {
            let (_, after) = compact_node_journal(&mut wal.borrow_mut()).unwrap();
            effective.push(after);
            let pool = state(&recovered(&wal.borrow(), &config())).3;
            assert_eq!(pool.first(), Some(&held), "round {round}: {pool:?}");
            assert!(!pool.contains(&first), "its block was folded");
            put(&mut node, &format!("later-{round}"));
            if round % 2 == 1 {
                node.mine_block(10 + round).unwrap();
            }
        }
        // Blocks 1, 2 and 3 and the withheld record; plus one unmined
        // `later` record after rounds 0 and 2.
        assert_eq!(effective, [2, 3, 3, 4]);
        // Its block arrives: the next compaction drops the record, and
        // only that one.
        node.submit_transaction(held_tx).unwrap();
        node.mine_block(99).unwrap();
        let live = state(&node);
        let (before, after) = compact_node_journal(&mut wal.borrow_mut()).unwrap();
        // Two blocks folded, two records carried, four live; everything
        // but the four blocks goes.
        assert_eq!((before, after), (2 + 2 + 4, 4));
        assert_eq!(state(&recovered(&wal.borrow(), &config())), live);
    }

    #[test]
    fn a_tx_journaled_again_after_its_block_stays_pending_as_in_the_whole_journal() {
        // The one history where this compaction and the oracle part ways,
        // and the oracle is the one that is wrong: a transaction submitted
        // again after the block that included it is back in the live
        // node's pool (the pool does not know the chain), so its second
        // record is not redundant. Only a block journaled *after* a
        // record makes it so.
        let (whole, compacted) = (mem_wal(8), mem_wal(8));
        let mut node = Node::new(config());
        node.register_contract(Box::new(KvStoreContract));
        node.set_journal(Box::new(Tee(
            WalJournal::new(compacted.clone()),
            WalJournal::new(whole.clone()),
        )));
        let kp = Keypair::from_seed(b"persist-tests");
        let tx = Transaction::new_signed(&kp, 0, "kvstore", "put", b"again".to_vec());
        node.submit_transaction(tx.clone()).unwrap();
        node.mine_block(1).unwrap();
        compact_node_journal(&mut compacted.borrow_mut()).unwrap();
        node.submit_transaction(tx).unwrap();
        let live = state(&node);
        assert_eq!(live.3.len(), 1);

        let (_, after) = compact_node_journal(&mut compacted.borrow_mut()).unwrap();
        assert_eq!(after, 2, "the block and the second record");
        assert_eq!(state(&recovered(&compacted.borrow(), &config())), live);
        assert_eq!(state(&recovered(&whole.borrow(), &config())), live);
        assert_eq!(full_rewrite(&journal_of(&whole.borrow())).len(), 1);
    }

    fn open(medium: &FaultyBackend) -> Wal {
        let config = WalConfig {
            segment_records: 4,
            durability: Durability::Flushed,
        };
        Wal::open(Box::new(medium.clone()), config).unwrap()
    }

    /// A journal with something in every place a compaction reads and
    /// writes — a committed fold, a carried pending record, a sealed and
    /// a tail segment of live records, one of them still pending — and
    /// the live node it describes.
    fn journal_mid_life() -> (FaultyBackend, NodeState) {
        let medium = FaultyBackend::default();
        let wal = Rc::new(RefCell::new(open(&medium)));
        let mut node = Node::new(ChainConfig {
            max_block_txs: 2,
            ..config()
        });
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
        compact_node_journal(&mut wal.borrow_mut()).unwrap(); // folds block 1, carries `c`
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
        assert_eq!(compact_node_journal(&mut wal).unwrap(), (1 + 1 + 5, 3 + 1));
        let [sealed, tail, fresh] = [1, 2, 3].map(segment_file_name);
        assert_eq!(
            medium.0.borrow().changes,
            [
                // The tail is sealed: durable before its successor exists.
                format!("sync {tail}"),
                format!("append {fresh}"),
                format!("sync {fresh}"),
                // The fold grows and is durable...
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
            steps, 8,
            "see compaction_changes_the_medium_in_commit_order"
        );
        let committed = pristine.len_of(FOLD_FILE);

        for crash_before in 0..=steps {
            // Steps 3, 4, 5, 6 and 8 are the crashes with the tail
            // sealed, the fold appended but not synced, the fold synced,
            // the manifest written, and the segments pruned.
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
            let torn = medium.len_of(FOLD_FILE) > committed && crash_before < 6;
            assert_eq!(
                torn,
                crash_before == 5,
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
            // `history` folded blocks and three records still pending...
            for height in 0..history {
                journal.record_block(&block(height, Vec::new())).unwrap();
            }
            for nonce in 0..3 {
                journal.record_transaction(&tx(nonce)).unwrap();
            }
            assert_eq!(
                compact_node_journal(&mut wal.borrow_mut()).unwrap(),
                (history + 3, history + 3)
            );
            // ...then 64 records: 48 transactions, 16 blocks that include
            // two of them each, the first one also a carried record.
            let mut appended = 0;
            for round in 0..16 {
                let txs: Vec<Transaction> = (0..3).map(|i| tx(100 + round * 3 + i)).collect();
                for tx in &txs {
                    journal.record_transaction(tx).unwrap();
                }
                let mut included = txs[..2].to_vec();
                if round == 0 {
                    included.push(tx(1));
                }
                let block = block(history + round, included);
                // Frame, tag, block.
                appended += (crate::segment::FRAME_LEN + 1 + block.wire_len()) as u64;
                journal.record_block(&block).unwrap();
            }
            let (work, counts) =
                count_work(|| compact_node_journal(&mut wal.borrow_mut()).unwrap());
            // 3 carried + 48 new records, 2 × 16 + 1 of them included.
            assert_eq!(counts, (history + 3 + 64, history + 16 + 3 + 48 - 33));
            (work, appended)
        };
        let (small, appended) = work_after(1_024);
        assert_eq!(small, [64 + 3, 16, appended], "records, blocks, fold bytes");
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
        // Three transactions a round, two a block: a backlog is carried
        // from compaction to compaction.
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
        let mut fold = Vec::new();
        for record in journal_of(&whole.borrow()) {
            if record.first() == Some(&TAG_BLOCK) {
                frame_record(&record, &mut fold);
            }
        }
        assert_eq!(medium.read(FOLD_FILE).unwrap(), fold);
        let mut pending = Vec::new();
        for tx in node.pending_transactions() {
            pack_record(
                &[&[TAG_TX], tx.to_canonical_bytes().as_slice()].concat(),
                &mut pending,
            );
        }
        assert_eq!(node.mempool_len(), 6);
        assert_eq!(
            Manifest::read(&compacted.borrow()).unwrap().pending,
            pending
        );
    }

    #[test]
    fn a_block_strikes_a_pending_record_by_its_bytes_not_its_sender_and_nonce() {
        let kp = Keypair::from_seed(b"persist-tests");
        let pending = Transaction::new_signed(&kp, 0, "kvstore", "put", b"pending".to_vec());
        // The same sender and nonce, other bytes: another transaction.
        let rival = Transaction::new_signed(&kp, 0, "kvstore", "put", b"rival".to_vec());
        assert_eq!(
            pending.to_canonical_bytes()[..SENDER_NONCE_LEN],
            rival.to_canonical_bytes()[..SENDER_NONCE_LEN]
        );
        let wal = mem_wal(8);
        let mut journal = WalJournal::new(wal.clone());
        journal.record_transaction(&pending).unwrap();
        journal
            .record_block(&Block::mine(Digest::ZERO, 0, vec![rival], 0, 0))
            .unwrap();
        assert_eq!(compact_node_journal(&mut wal.borrow_mut()).unwrap(), (2, 2));
        journal
            .record_block(&Block::mine(Digest::ZERO, 1, vec![pending], 1, 0))
            .unwrap();
        assert_eq!(compact_node_journal(&mut wal.borrow_mut()).unwrap(), (3, 2));
    }

    #[test]
    fn a_block_record_that_does_not_decode_fails_the_compaction_naming_its_seq() {
        let kp = Keypair::from_seed(b"persist-tests");
        let tx = Transaction::new_signed(&kp, 0, "kvstore", "put", b"a".to_vec());
        let block = Block::mine(Digest::ZERO, 0, vec![tx.clone()], 0, 0).to_canonical_bytes();
        for garbage in [&[1, 2, 3][..], &block[..block.len() - 1]] {
            let wal = mem_wal(8);
            WalJournal::new(wal.clone())
                .record_transaction(&tx)
                .unwrap();
            let seq = wal
                .borrow_mut()
                .append(&[&[TAG_BLOCK], garbage].concat())
                .unwrap();
            let reason = Block::from_canonical_bytes(garbage).unwrap_err();
            assert_eq!(
                compact_node_journal(&mut wal.borrow_mut()),
                Err(StoreError::Codec(format!("journal record {seq}: {reason}")))
            );
            // Nothing was committed: the journal is what it was.
            assert_eq!(wal.borrow().read_snapshot().unwrap(), None);
            assert_eq!(journal_of(&wal.borrow()).len(), 2);
        }
    }

    #[test]
    fn an_older_snapshot_layout_is_refused_not_migrated() {
        let (mut node, wal) = journaled_node();
        let kp = Keypair::from_seed(b"persist-tests");
        node.submit_call(&kp, "kvstore", "put", b"a".to_vec())
            .unwrap();
        drop(node);
        // What the previous compaction wrote: the journal's records, each
        // behind its length, and nothing else.
        let mut old = Vec::new();
        for record in journal_of(&wal.borrow()) {
            pack_record(&record, &mut old);
        }
        let upto = wal.borrow().next_seq();
        wal.borrow_mut().write_snapshot(upto, &old).unwrap();
        let recovery = recover_node(&wal.borrow(), config(), vec![]).map(|_| ());
        let compaction = compact_node_journal(&mut wal.borrow_mut()).map(|_| ());
        for outcome in [recovery, compaction] {
            match outcome {
                Err(StoreError::Codec(reason)) => {
                    assert!(
                        reason.contains(SNAPSHOT_FILE) && reason.contains("layout 0"),
                        "{reason}"
                    );
                }
                other => panic!("expected a typed refusal, got {other:?}"),
            }
        }
    }
}
