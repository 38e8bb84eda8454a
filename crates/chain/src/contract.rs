//! Smart-contract runtime.
//!
//! The paper's monitoring checks run as a smart contract on a private
//! blockchain (§II: "Smart-contract blockchain: … storing and comparing
//! logs, using expressly devised algorithms"). This module provides the
//! deterministic execution environment: per-contract key-value storage
//! with journaled rollback, an append-only event log (the channel through
//! which security alerts reach the Logging Interfaces), and a host that
//! executes main-chain blocks in order and re-executes deterministically
//! after a reorg.
//!
//! Storage keys are byte strings ordered byte-lexicographically. Every
//! key the workspace's contracts write is short (the monitor contract's
//! longest is 14 bytes), so a key up to `INLINE_KEY_LEN` bytes is held
//! inline, in the map and in the rollback journal alike: writing and
//! journaling such a key allocates nothing, and a caller builds the key
//! it looks up on the stack. A longer key is still accepted and lives on
//! the heap.

use crate::block::{Block, BlockHash};
use crate::chain::Blockchain;
use crate::tx::TxId;
use drams_crypto::schnorr::PublicKey;
use drams_crypto::sha256::Digest;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound;

/// An event emitted by a contract during execution — DRAMS security
/// alerts travel this way.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Emitting contract.
    pub contract: String,
    /// Event name, e.g. `alert.request_tampering`.
    pub name: String,
    /// Canonical-encoded event payload.
    pub data: Vec<u8>,
    /// Height of the block whose execution emitted this.
    pub block_height: u64,
    /// Timestamp of that block.
    pub timestamp_ms: u64,
    /// The transaction that triggered it.
    pub tx_id: TxId,
}

/// Longest storage key held inline (see the module docs).
const INLINE_KEY_LEN: usize = 22;

/// A storage key: inline up to [`INLINE_KEY_LEN`] bytes, else boxed.
/// Compares, orders and borrows as its bytes, so the map can be searched
/// with a plain `&[u8]`.
#[derive(Clone)]
enum Key {
    Inline {
        len: u8,
        bytes: [u8; INLINE_KEY_LEN],
    },
    Boxed(Box<[u8]>),
}

impl Key {
    fn new(key: &[u8]) -> Self {
        if key.len() > INLINE_KEY_LEN {
            return Key::Boxed(key.into());
        }
        let mut bytes = [0u8; INLINE_KEY_LEN];
        bytes[..key.len()].copy_from_slice(key);
        Key::Inline {
            len: key.len() as u8,
            bytes,
        }
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            Key::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Key::Boxed(bytes) => bytes,
        }
    }
}

impl Borrow<[u8]> for Key {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::fmt::Debug for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.as_slice())
    }
}

/// Per-contract storage with an undo journal, so a failed transaction
/// rolls back exactly its own writes.
#[derive(Debug, Default)]
pub struct Storage {
    map: BTreeMap<Key, Vec<u8>>,
    journal: Vec<(Key, Option<Vec<u8>>)>,
}

impl Storage {
    /// Reads a value.
    #[must_use]
    pub fn get(&self, key: &[u8]) -> Option<&Vec<u8>> {
        self.map.get(key)
    }

    /// Writes a value, journaling the previous one.
    pub fn insert(&mut self, key: &[u8], value: Vec<u8>) {
        let key = Key::new(key);
        let old = self.map.insert(key.clone(), value);
        self.journal.push((key, old));
    }

    /// Removes a value, journaling it; true when there was one.
    pub fn remove(&mut self, key: &[u8]) -> bool {
        let old = self.map.remove(key);
        let removed = old.is_some();
        self.journal.push((Key::new(key), old));
        removed
    }

    /// Iterates over entries with a given key prefix, in byte order.
    pub fn scan_prefix<'a>(
        &'a self,
        prefix: &'a [u8],
    ) -> impl Iterator<Item = (&'a [u8], &'a Vec<u8>)> + 'a {
        self.map
            .range::<[u8], _>((Bound::Included(prefix), Bound::Unbounded))
            .map(|(k, v)| (k.as_slice(), v))
            .take_while(move |(k, _)| k.starts_with(prefix))
    }

    /// Number of stored entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn begin_tx(&mut self) {
        self.journal.clear();
    }

    fn rollback(&mut self) {
        while let Some((key, old)) = self.journal.pop() {
            match old {
                Some(v) => {
                    self.map.insert(key, v);
                }
                None => {
                    self.map.remove(key.as_slice());
                }
            }
        }
    }
}

/// Execution context passed to a contract method.
#[derive(Debug)]
pub struct ExecutionContext<'a> {
    /// The contract's own storage.
    pub storage: &'a mut Storage,
    /// Sink for emitted events.
    events: &'a mut Vec<Event>,
    /// Current block height.
    pub block_height: u64,
    /// Current block timestamp.
    pub timestamp_ms: u64,
    /// The transaction sender.
    pub sender: PublicKey,
    /// The transaction id.
    pub tx_id: TxId,
    contract_name: String,
}

impl ExecutionContext<'_> {
    /// Emits an event.
    pub fn emit(&mut self, name: impl Into<String>, data: Vec<u8>) {
        self.events.push(Event {
            contract: self.contract_name.clone(),
            name: name.into(),
            data,
            block_height: self.block_height,
            timestamp_ms: self.timestamp_ms,
            tx_id: self.tx_id,
        });
    }

    /// The sender's address fingerprint.
    #[must_use]
    pub fn sender_address(&self) -> Digest {
        self.sender.fingerprint()
    }
}

/// A deterministic smart contract. Implementations must be pure functions
/// of (storage, method, payload, context) — no clocks, no randomness —
/// so that re-execution after a reorg reproduces identical state.
pub trait SmartContract: Send + Sync {
    /// The contract's registry name.
    fn name(&self) -> &str;

    /// Executes one method call.
    ///
    /// # Errors
    ///
    /// A returned error aborts the call; the host rolls back the call's
    /// storage writes and records a `tx.failed` event.
    fn execute(
        &self,
        ctx: &mut ExecutionContext<'_>,
        method: &str,
        payload: &[u8],
    ) -> Result<(), String>;
}

/// Executes main-chain blocks against registered contracts.
pub struct ContractHost {
    contracts: BTreeMap<String, Box<dyn SmartContract>>,
    storage: BTreeMap<String, Storage>,
    events: Vec<Event>,
    account_nonces: BTreeMap<Digest, u64>,
    executed: Vec<BlockHash>,
}

impl std::fmt::Debug for ContractHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContractHost")
            .field("contracts", &self.contracts.keys().collect::<Vec<_>>())
            .field("executed_blocks", &self.executed.len())
            .field("events", &self.events.len())
            .finish()
    }
}

impl Default for ContractHost {
    fn default() -> Self {
        Self::new()
    }
}

impl ContractHost {
    /// Creates an empty host.
    #[must_use]
    pub fn new() -> Self {
        ContractHost {
            contracts: BTreeMap::new(),
            storage: BTreeMap::new(),
            events: Vec::new(),
            account_nonces: BTreeMap::new(),
            executed: Vec::new(),
        }
    }

    /// Registers a contract under its own name.
    pub(crate) fn register(&mut self, contract: Box<dyn SmartContract>) {
        let name = contract.name().to_string();
        self.storage.entry(name.clone()).or_default();
        self.contracts.insert(name, contract);
    }

    /// The account nonce expected from `sender`'s next transaction.
    #[must_use]
    pub(crate) fn account_nonce(&self, sender: &PublicKey) -> u64 {
        *self.account_nonces.get(&sender.fingerprint()).unwrap_or(&0)
    }

    /// Read-only view of a contract's storage.
    #[must_use]
    pub fn storage_of(&self, contract: &str) -> Option<&Storage> {
        self.storage.get(contract)
    }

    /// All events emitted so far, in execution order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events from `cursor` on; returns the new cursor.
    #[must_use]
    pub fn events_since(&self, cursor: usize) -> (&[Event], usize) {
        let slice = &self.events[cursor.min(self.events.len())..];
        (slice, self.events.len())
    }

    /// Brings contract state in sync with `chain`'s main chain.
    ///
    /// Walks parent links from the tip down to the height of the last
    /// executed block. If the main chain still runs through that block —
    /// and so, its hash committing to its ancestors, through the whole
    /// executed prefix — only the blocks above it are executed: a sync
    /// costs what the new blocks cost, not the chain's height. After a
    /// reorg past the executed tip the whole state is deterministically
    /// rebuilt from genesis.
    pub(crate) fn sync_with(&mut self, chain: &Blockchain) {
        let executed = self.executed.len() as u64;
        // Main-chain hashes above the executed tip, newest first.
        let mut new = Vec::new();
        let mut hash = chain.tip_hash();
        let mut height = chain.tip_header().height;
        while height >= executed {
            new.push(hash);
            if height == 0 {
                break;
            }
            hash = chain
                .block(&hash)
                .expect("main chain block exists")
                .header
                .parent;
            height -= 1;
        }
        new.reverse();
        if executed > 0 && self.executed.last() != Some(&hash) {
            // The main chain no longer runs through the executed tip.
            self.reset();
            new = chain.main_chain_hashes();
        }
        for hash in new {
            let block = chain.block(&hash).expect("main chain block exists");
            self.execute_block(block);
            self.executed.push(hash);
        }
    }

    fn reset(&mut self) {
        for storage in self.storage.values_mut() {
            *storage = Storage::default();
        }
        self.events.clear();
        self.account_nonces.clear();
        self.executed.clear();
    }

    fn execute_block(&mut self, block: &Block) {
        for tx in &block.transactions {
            self.execute_tx(block, tx);
        }
    }

    /// Runs one transaction. One whose nonce is not its sender's next, or
    /// that names no registered contract, is skipped: no state changes
    /// and no event. A failed call leaves a `tx.failed` event.
    fn execute_tx(&mut self, block: &Block, tx: &crate::tx::Transaction) {
        let sender_addr = tx.sender.fingerprint();
        let expected_nonce = *self.account_nonces.get(&sender_addr).unwrap_or(&0);
        if tx.nonce != expected_nonce {
            return;
        }
        let Some(contract) = self.contracts.get(&tx.contract) else {
            return;
        };
        let storage = self
            .storage
            .get_mut(&tx.contract)
            .expect("storage created at registration");
        storage.begin_tx();
        let mut scratch_events = Vec::new();
        let mut ctx = ExecutionContext {
            storage,
            events: &mut scratch_events,
            block_height: block.header.height,
            timestamp_ms: block.header.timestamp_ms,
            sender: tx.sender,
            tx_id: tx.id(),
            contract_name: tx.contract.clone(),
        };
        let result = contract.execute(&mut ctx, &tx.method, &tx.payload);
        match result {
            Ok(()) => {
                self.account_nonces.insert(sender_addr, expected_nonce + 1);
                self.events.extend(scratch_events);
            }
            Err(msg) => {
                storage.rollback();
                // A failed call still consumes the nonce (like gas-metered
                // chains), so a stuck transaction cannot wedge an account.
                self.account_nonces.insert(sender_addr, expected_nonce + 1);
                self.events.push(Event {
                    contract: tx.contract.clone(),
                    name: "tx.failed".into(),
                    data: msg.into_bytes(),
                    block_height: block.header.height,
                    timestamp_ms: block.header.timestamp_ms,
                    tx_id: tx.id(),
                });
            }
        }
    }
}

/// A trivial contract that stores `payload` under an incrementing key —
/// the baseline "just put logs on chain" contract used in benchmarks.
#[derive(Debug, Default)]
pub struct KvStoreContract;

impl SmartContract for KvStoreContract {
    fn name(&self) -> &str {
        "kvstore"
    }

    fn execute(
        &self,
        ctx: &mut ExecutionContext<'_>,
        method: &str,
        payload: &[u8],
    ) -> Result<(), String> {
        match method {
            "put" => {
                let seq = ctx.storage.len() as u64;
                ctx.storage.insert(&seq.to_be_bytes(), payload.to_vec());
                ctx.emit("stored", seq.to_be_bytes().to_vec());
                Ok(())
            }
            "fail" => Err("requested failure".into()),
            other => Err(format!("unknown method `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{Blockchain, ChainConfig};
    use crate::tx::Transaction;
    use drams_crypto::schnorr::Keypair;
    use proptest::prelude::*;

    fn config() -> ChainConfig {
        ChainConfig {
            initial_difficulty_bits: 0,
            ..ChainConfig::default()
        }
    }

    fn setup() -> (Blockchain, ContractHost, Keypair) {
        let chain = Blockchain::new(config());
        let mut host = ContractHost::new();
        host.register(Box::new(KvStoreContract));
        (chain, host, Keypair::from_seed(b"host-tests"))
    }

    fn mine_with(chain: &mut Blockchain, txs: Vec<Transaction>, ts: u64) {
        let tip = chain.tip_hash();
        let height = chain.tip_header().height + 1;
        let bits = chain.required_difficulty(&tip).unwrap();
        let block = Block::mine(tip, height, txs, ts, bits);
        chain.import(block).unwrap();
    }

    #[test]
    fn executes_blocks_and_emits_events() {
        let (mut chain, mut host, kp) = setup();
        let tx = Transaction::new_signed(&kp, 0, "kvstore", "put", b"hello".to_vec());
        let id = tx.id();
        mine_with(&mut chain, vec![tx], 1000);
        host.sync_with(&chain);
        assert_eq!(host.events().len(), 1);
        assert_eq!(host.events()[0].name, "stored");
        assert_eq!(host.events()[0].tx_id, id);
        assert_eq!(host.storage_of("kvstore").unwrap().len(), 1);
        assert_eq!(host.account_nonce(&kp.public()), 1);
    }

    #[test]
    fn failed_tx_rolls_back_and_consumes_nonce() {
        let (mut chain, mut host, kp) = setup();
        let tx = Transaction::new_signed(&kp, 0, "kvstore", "fail", vec![]);
        let id = tx.id();
        mine_with(&mut chain, vec![tx], 1000);
        host.sync_with(&chain);
        assert!(host.storage_of("kvstore").unwrap().is_empty());
        assert_eq!(host.account_nonce(&kp.public()), 1);
        assert_eq!(host.events().len(), 1);
        assert_eq!(host.events()[0].name, "tx.failed");
        assert_eq!(host.events()[0].tx_id, id);
        assert_eq!(host.events()[0].data, b"requested failure");
    }

    #[test]
    fn bad_nonce_is_skipped() {
        let (mut chain, mut host, kp) = setup();
        let tx = Transaction::new_signed(&kp, 5, "kvstore", "put", vec![]);
        mine_with(&mut chain, vec![tx], 1000);
        host.sync_with(&chain);
        assert_eq!(host.account_nonce(&kp.public()), 0);
        assert!(host.events().is_empty());
        assert!(host.storage_of("kvstore").unwrap().is_empty());
    }

    #[test]
    fn unknown_contract_is_skipped() {
        let (mut chain, mut host, kp) = setup();
        let tx = Transaction::new_signed(&kp, 0, "ghost", "put", vec![]);
        mine_with(&mut chain, vec![tx], 1000);
        host.sync_with(&chain);
        assert_eq!(host.account_nonce(&kp.public()), 0);
        assert!(host.events().is_empty());
        assert!(host.storage_of("ghost").is_none());
    }

    #[test]
    fn incremental_sync_only_executes_suffix() {
        let (mut chain, mut host, kp) = setup();
        let tx0 = Transaction::new_signed(&kp, 0, "kvstore", "put", b"a".to_vec());
        mine_with(&mut chain, vec![tx0], 1000);
        host.sync_with(&chain);
        let tx1 = Transaction::new_signed(&kp, 1, "kvstore", "put", b"b".to_vec());
        mine_with(&mut chain, vec![tx1], 2000);
        host.sync_with(&chain);
        assert_eq!(host.storage_of("kvstore").unwrap().len(), 2);
        assert_eq!(host.executed.len(), 3);
    }

    /// Stores each call's payload under its block height and counts its
    /// executions, so a test sees exactly which blocks a sync ran.
    struct Counting(std::sync::Arc<std::sync::atomic::AtomicU64>);

    impl SmartContract for Counting {
        fn name(&self) -> &str {
            "counting"
        }

        fn execute(
            &self,
            ctx: &mut ExecutionContext<'_>,
            _method: &str,
            payload: &[u8],
        ) -> Result<(), String> {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            ctx.storage
                .insert(&ctx.block_height.to_be_bytes(), payload.to_vec());
            Ok(())
        }
    }

    fn counting_host() -> (ContractHost, std::sync::Arc<std::sync::atomic::AtomicU64>) {
        let calls = std::sync::Arc::default();
        let mut host = ContractHost::new();
        host.register(Box::new(Counting(std::sync::Arc::clone(&calls))));
        (host, calls)
    }

    fn call(kp: &Keypair, nonce: u64, payload: &[u8]) -> Vec<Transaction> {
        vec![Transaction::new_signed(
            kp,
            nonce,
            "counting",
            "put",
            payload.to_vec(),
        )]
    }

    fn contents(host: &ContractHost) -> Vec<(Vec<u8>, Vec<u8>)> {
        host.storage_of("counting")
            .unwrap()
            .scan_prefix(&[])
            .map(|(k, v)| (k.to_vec(), v.clone()))
            .collect()
    }

    #[test]
    fn linear_extension_executes_only_the_new_blocks() {
        let mut chain = Blockchain::new(config());
        let (mut host, calls) = counting_host();
        let kp = Keypair::from_seed(b"host-tests");
        let executed = || calls.load(std::sync::atomic::Ordering::Relaxed);
        for nonce in 0..4 {
            mine_with(&mut chain, call(&kp, nonce, b"x"), 1_000 + nonce);
            host.sync_with(&chain);
            assert_eq!(executed(), nonce + 1);
        }
        host.sync_with(&chain);
        assert_eq!(executed(), 4, "nothing new, nothing executed");
        mine_with(&mut chain, call(&kp, 4, b"y"), 2_000);
        mine_with(&mut chain, call(&kp, 5, b"z"), 2_001);
        host.sync_with(&chain);
        assert_eq!(executed(), 6);
        assert_eq!(host.executed.len(), 7);
        assert_eq!(host.events().len(), 0);
        assert_eq!(contents(&host).len(), 6);
    }

    #[test]
    fn reorg_past_the_executed_tip_resets_and_replays_the_main_chain() {
        let mut chain = Blockchain::new(config());
        let (mut host, calls) = counting_host();
        let kp = Keypair::from_seed(b"host-tests");
        mine_with(&mut chain, call(&kp, 0, b"a1"), 1_000);
        let abandoned = chain.tip_hash();
        mine_with(&mut chain, call(&kp, 1, b"a2"), 1_001);
        host.sync_with(&chain);
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 2);

        // A heavier branch from the first block replaces the second.
        let mut parent = abandoned;
        for (height, payload) in [(2, b"b2"), (3, b"b3")] {
            let block = Block::mine(parent, height, call(&kp, height - 1, payload), 5_000, 0);
            parent = block.hash();
            chain.import(block).unwrap();
        }
        assert_eq!(chain.tip_hash(), parent);
        host.sync_with(&chain);
        assert_eq!(
            calls.load(std::sync::atomic::Ordering::Relaxed),
            2 + 3,
            "reset, then the whole main chain replayed"
        );
        let (mut fresh, _) = counting_host();
        fresh.sync_with(&chain);
        assert_eq!(contents(&host), contents(&fresh));
        assert_eq!(host.executed.len(), 4);
        assert_eq!(host.account_nonce(&kp.public()), 3);
    }

    #[test]
    fn storage_journal_rolls_back_overwrites() {
        let mut s = Storage::default();
        s.insert(b"k", b"v1".to_vec());
        let long = [b'k'; INLINE_KEY_LEN + 9];
        s.begin_tx();
        s.insert(b"k", b"v2".to_vec());
        s.insert(b"k2", b"x".to_vec());
        s.insert(&long, b"boxed".to_vec());
        s.remove(b"k");
        s.rollback();
        assert_eq!(s.get(b"k"), Some(&b"v1".to_vec()));
        assert_eq!(s.get(b"k2"), None);
        assert_eq!(s.get(&long), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn scan_prefix_is_ordered_and_bounded() {
        let mut s = Storage::default();
        s.insert(b"a.1", b"1".to_vec());
        s.insert(b"a.2", b"2".to_vec());
        s.insert(b"b.1", b"3".to_vec());
        let hits: Vec<_> = s.scan_prefix(b"a.").collect();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0], (&b"a.1"[..], &b"1".to_vec()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Inline and boxed keys together order, look up and scan exactly
        /// as plain `Vec<u8>` keys do. Keys are drawn from a three-letter
        /// alphabet, around the inline length, so they share prefixes,
        /// prefix one another and straddle the inline/boxed boundary.
        #[test]
        fn keys_behave_as_byte_strings(
            writes in prop::collection::vec(
                (prop::collection::vec(0u8..3, 0..INLINE_KEY_LEN + 6), any::<bool>()),
                0..48,
            ),
            prefix in prop::collection::vec(0u8..3, 0..5),
        ) {
            let byte = |k: Vec<u8>| -> Vec<u8> {
                k.into_iter().map(|b| [b'a', 0x00, 0xff][usize::from(b)]).collect()
            };
            let mut s = Storage::default();
            let mut reference: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            for (i, (key, remove)) in writes.into_iter().enumerate() {
                let key = byte(key);
                if remove {
                    prop_assert_eq!(s.remove(&key), reference.remove(&key).is_some());
                } else {
                    let value = i.to_be_bytes().to_vec();
                    s.insert(&key, value.clone());
                    reference.insert(key, value);
                }
            }
            let prefix = byte(prefix);
            let scanned: Vec<(Vec<u8>, Vec<u8>)> =
                s.scan_prefix(&prefix).map(|(k, v)| (k.to_vec(), v.clone())).collect();
            let expected: Vec<(Vec<u8>, Vec<u8>)> = reference
                .iter()
                .filter(|(k, _)| k.starts_with(&prefix))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            prop_assert_eq!(scanned, expected);
            let all: Vec<Vec<u8>> = s.scan_prefix(&[]).map(|(k, _)| k.to_vec()).collect();
            prop_assert_eq!(all, reference.keys().cloned().collect::<Vec<_>>());
            for (key, value) in &reference {
                prop_assert_eq!(s.get(key), Some(value));
            }
        }
    }
}
