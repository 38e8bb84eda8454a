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
//! The event log is a window, not the run's history: readers keep
//! absolute positions into it, and the host retains only the events from
//! the slowest reader's position on (`ContractHost::release_events`). A
//! position stays the same however much of the log below it has been
//! released.
//!
//! Storage keys are byte strings ordered byte-lexicographically. Every
//! key the workspace's contracts write is short (the monitor contract's
//! longest are 13 bytes: `ent/`‖corr‖point and `open/`‖corr), so a key
//! up to `INLINE_KEY_LEN` bytes is held
//! inline, in the map and in the rollback journal alike: writing and
//! journaling such a key allocates nothing, and a caller builds the key
//! it looks up on the stack. A longer key is still accepted and lives on
//! the heap.
//!
//! A stored value is either bytes the storage owns — a contract's own
//! small records, built per call — or a span of the payload buffer of the
//! transaction that carried it ([`ExecutionContext::store_payload_span`]),
//! shared with that transaction and with the block that holds it: the
//! bytes a log entry arrived in are the bytes storage keeps, and nothing
//! is copied. Such a value pins the whole payload buffer until it is
//! overwritten or removed, or until a reorg resets the storage; either
//! kind reads back as a plain `&[u8]`.

use crate::block::{Block, BlockHash};
use crate::chain::Blockchain;
use crate::tx::TxId;
use drams_crypto::schnorr::PublicKey;
use drams_crypto::sha256::Digest;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::{Bound, Range};
use std::sync::Arc;

/// An event emitted by a contract during execution — DRAMS security
/// alerts travel this way.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event name, e.g. `alert.request_tampering`.
    pub name: &'static str,
    /// Canonical-encoded event payload.
    pub data: Vec<u8>,
    /// Timestamp of the block whose execution emitted this.
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

/// A stored value (see the module docs).
enum Value {
    /// Bytes the storage owns.
    Owned(Vec<u8>),
    /// `payload[span]`, sharing the buffer of the transaction that
    /// carried it.
    Shared {
        payload: Arc<[u8]>,
        span: Range<usize>,
    },
}

impl Value {
    fn as_slice(&self) -> &[u8] {
        match self {
            Value::Owned(bytes) => bytes,
            Value::Shared { payload, span } => &payload[span.clone()],
        }
    }
}

impl std::fmt::Debug for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.as_slice())
    }
}

/// Per-contract storage with an undo journal, so a failed transaction
/// rolls back exactly its own writes.
#[derive(Debug, Default)]
pub struct Storage {
    map: BTreeMap<Key, Value>,
    journal: Vec<(Key, Option<Value>)>,
}

impl Storage {
    /// Reads a value.
    #[must_use]
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.map.get(key).map(Value::as_slice)
    }

    /// Writes a value, journaling the previous one.
    pub fn insert(&mut self, key: &[u8], value: Vec<u8>) {
        self.put(key, Value::Owned(value));
    }

    fn put(&mut self, key: &[u8], value: Value) {
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
    ) -> impl Iterator<Item = (&'a [u8], &'a [u8])> + 'a {
        self.map
            .range::<[u8], _>((Bound::Included(prefix), Bound::Unbounded))
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
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
    /// Current block timestamp.
    pub timestamp_ms: u64,
    /// The transaction sender.
    pub sender: PublicKey,
    /// The transaction id.
    pub tx_id: TxId,
    /// The call's payload buffer, which `store_payload_span` shares.
    payload: &'a Arc<[u8]>,
}

impl ExecutionContext<'_> {
    /// Stores `payload[span]` of this call's payload under `key` without
    /// copying it: the value is a span of the transaction's own payload
    /// buffer (see the module docs). Journaled and rolled back like
    /// [`Storage::insert`].
    ///
    /// # Panics
    ///
    /// If `span` is not a range of the payload.
    pub fn store_payload_span(&mut self, key: &[u8], span: Range<usize>) {
        assert!(
            self.payload.get(span.clone()).is_some(),
            "span {span:?} is not a range of a {}-byte payload",
            self.payload.len()
        );
        let payload = Arc::clone(self.payload);
        self.storage.put(key, Value::Shared { payload, span });
    }

    /// Emits an event.
    pub fn emit(&mut self, name: &'static str, data: Vec<u8>) {
        self.events.push(Event {
            name,
            data,
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
    fn name(&self) -> &'static str;

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
    /// The retained events: `events[0]` is at log position `released`.
    events: Vec<Event>,
    /// Events released so far: the log position of `events[0]`.
    released: usize,
    account_nonces: BTreeMap<Digest, u64>,
    /// The main-chain tip the state reflects; `None` before the first
    /// sync.
    executed: Option<BlockHash>,
}

impl std::fmt::Debug for ContractHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContractHost")
            .field("contracts", &self.contracts.keys().collect::<Vec<_>>())
            .field("executed_tip", &self.executed)
            .field("events", &self.events.len())
            .field("released", &self.released)
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
            released: 0,
            account_nonces: BTreeMap::new(),
            executed: None,
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

    /// The retained events, in execution order: those not yet released
    /// (see `ContractHost::release_events`).
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events from log position `cursor` on; returns them and the
    /// position past the last.
    ///
    /// # Panics
    ///
    /// If `cursor` is below the released prefix: every reader's position
    /// must stay at or past what has been released.
    #[must_use]
    pub fn events_since(&self, cursor: usize) -> (&[Event], usize) {
        assert!(
            cursor >= self.released,
            "event log position {cursor} is below the released prefix {}: \
             the log is released only below every reader's position",
            self.released
        );
        let start = (cursor - self.released).min(self.events.len());
        (&self.events[start..], self.released + self.events.len())
    }

    /// Releases the events below log position `upto`, which every reader
    /// has passed, once they are at least half of the events held: each
    /// event is then moved O(1) times on average, and the log holds at
    /// most twice the window from the slowest reader on. A position past
    /// the end releases what there is; one below the released prefix
    /// releases nothing.
    pub(crate) fn release_events(&mut self, upto: usize) {
        let passed = upto.saturating_sub(self.released).min(self.events.len());
        if passed > 0 && 2 * passed >= self.events.len() {
            self.events.drain(..passed);
            self.released += passed;
        }
    }

    /// Brings contract state in sync with `chain`'s main chain.
    ///
    /// When the fork point of the main chain's tip and the executed tip
    /// is the executed tip itself, the main chain still runs through it —
    /// and so, its hash committing to its ancestors, through everything
    /// executed — and only the blocks above it are executed: a sync costs
    /// what the new blocks cost, not the chain's height. After a reorg
    /// past the executed tip the whole state is deterministically rebuilt
    /// from genesis.
    pub(crate) fn sync_with(&mut self, chain: &Blockchain) {
        let tip = chain.tip_hash();
        let base = self
            .executed
            .filter(|executed| chain.fork_point(&tip, executed) == Some(*executed));
        let reset = self.executed.is_some() && base.is_none();
        if reset {
            // The main chain no longer runs through the executed tip.
            self.reset();
        }
        let new: Vec<&Block> = chain
            .ancestors(&tip)
            .take_while(|(hash, _)| Some(*hash) != base)
            .map(|(_, block)| block)
            .collect();
        for block in new.into_iter().rev() {
            self.execute_block(block);
        }
        self.executed = Some(tip);
        if reset {
            // The rebuilt log starts at position 0 again: drop what was
            // released, so every retained event keeps the position it has
            // in a log that never released.
            let released = self.released.min(self.events.len());
            self.events.drain(..released);
            self.released = released;
        }
    }

    fn reset(&mut self) {
        for storage in self.storage.values_mut() {
            *storage = Storage::default();
        }
        self.events.clear();
        self.account_nonces.clear();
        self.executed = None;
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
            timestamp_ms: block.header.timestamp_ms,
            sender: tx.sender,
            tx_id: tx.id(),
            payload: &tx.payload,
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
                    name: "tx.failed",
                    data: msg.into_bytes(),
                    timestamp_ms: block.header.timestamp_ms,
                    tx_id: tx.id(),
                });
            }
        }
    }
}

/// A trivial contract that stores `payload` under an incrementing key —
/// the baseline "just put logs on chain" contract used in benchmarks. The
/// stored value shares the transaction's payload buffer.
#[derive(Debug, Default)]
pub struct KvStoreContract;

impl SmartContract for KvStoreContract {
    fn name(&self) -> &'static str {
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
                ctx.store_payload_span(&seq.to_be_bytes(), 0..payload.len());
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

    /// The height of the block `host` last executed, read from `chain`.
    fn executed_height(host: &ContractHost, chain: &Blockchain) -> u64 {
        let executed = host.executed.expect("synced");
        chain.block(&executed).unwrap().header.height
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
        assert_eq!(executed_height(&host, &chain), 2);
    }

    /// Stores each call's payload under its block timestamp and counts its
    /// executions, so a test sees exactly which blocks a sync ran (every
    /// block these tests mine carries its own timestamp).
    struct Counting(std::sync::Arc<std::sync::atomic::AtomicU64>);

    impl SmartContract for Counting {
        fn name(&self) -> &'static str {
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
                .insert(&ctx.timestamp_ms.to_be_bytes(), payload.to_vec());
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
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
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
        assert_eq!(executed_height(&host, &chain), 6);
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
            let block = Block::mine(
                parent,
                height,
                call(&kp, height - 1, payload),
                5_000 + height,
                0,
            );
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
        assert_eq!(contents(&host).len(), 3, "one key per main-chain block");
        assert_eq!(executed_height(&host, &chain), 3);
        assert_eq!(host.account_nonce(&kp.public()), 3);
    }

    /// A host that has executed `n` blocks of one `put` each, and so holds
    /// `n` events, with the chain it executed.
    fn host_with_events(n: u64) -> (Blockchain, ContractHost, Keypair) {
        let (mut chain, mut host, kp) = setup();
        for nonce in 0..n {
            put(&mut chain, &kp, nonce, 1_000 + nonce);
        }
        host.sync_with(&chain);
        (chain, host, kp)
    }

    /// Mines one block holding `kp`'s `put` at `nonce`.
    fn put(chain: &mut Blockchain, kp: &Keypair, nonce: u64, ts: u64) {
        let payload = nonce.to_be_bytes().to_vec();
        let tx = Transaction::new_signed(kp, nonce, "kvstore", "put", payload);
        mine_with(chain, vec![tx], ts);
    }

    /// `events_since(c)` for every `c` in `from..=to`, owned.
    fn reads(host: &ContractHost, from: usize, to: usize) -> Vec<(Vec<Event>, usize)> {
        (from..=to)
            .map(|c| {
                let (events, next) = host.events_since(c);
                (events.to_vec(), next)
            })
            .collect()
    }

    #[test]
    fn positions_are_stable_across_a_release() {
        let (mut twin_chain, mut twin, _) = host_with_events(10);
        let (mut chain, mut host, kp) = host_with_events(10);
        host.release_events(6);
        assert_eq!(host.events().len(), 4);
        assert_eq!(host.events(), &twin.events()[6..]);
        assert_eq!(reads(&host, 6, 12), reads(&twin, 6, 12));
        // Events emitted after the release land where the twin's do.
        for c in [&mut twin_chain, &mut chain] {
            put(c, &kp, 10, 5_000);
            put(c, &kp, 11, 5_001);
        }
        twin.sync_with(&twin_chain);
        host.sync_with(&chain);
        assert_eq!(host.events_since(10).1, 12);
        assert_eq!(reads(&host, 6, 14), reads(&twin, 6, 14));
    }

    #[test]
    fn a_prefix_is_released_once_it_is_half_of_what_is_held() {
        let (_, mut host, _) = host_with_events(10);
        let held = |host: &ContractHost| (host.released, host.events().len());
        host.release_events(4);
        assert_eq!(held(&host), (0, 10), "4 of 10 passed: all kept");
        host.release_events(5);
        assert_eq!(held(&host), (5, 5), "5 of 10 passed: released");
        host.release_events(7);
        assert_eq!(held(&host), (5, 5), "2 of 5 passed: kept");
        host.release_events(3);
        assert_eq!(held(&host), (5, 5), "below the prefix: nothing");
        host.release_events(8);
        assert_eq!(held(&host), (8, 2));
    }

    #[test]
    fn releasing_past_the_end_releases_what_there_is() {
        let (mut chain, mut host, kp) = host_with_events(4);
        host.release_events(usize::MAX);
        assert_eq!(host.released, 4);
        assert!(host.events().is_empty());
        assert_eq!(host.events_since(4), (&[][..], 4));
        assert_eq!(host.events_since(9), (&[][..], 4));
        put(&mut chain, &kp, 4, 2_000);
        host.sync_with(&chain);
        let (events, next) = host.events_since(4);
        assert_eq!((events.len(), next), (1, 5));
        assert_eq!(events[0].data, 4u64.to_be_bytes());
    }

    #[test]
    fn a_reorg_reset_drops_the_released_prefix_again() {
        let (mut twin_chain, mut twin, kp) = host_with_events(6);
        let (mut chain, mut host, _) = host_with_events(6);
        host.release_events(4);
        assert_eq!(host.released, 4);
        // A heavier branch from the block at height 4 replaces heights 5
        // and 6: both hosts reset and replay the whole main chain.
        for c in [&mut twin_chain, &mut chain] {
            let (mut parent, _) = c.ancestors(&c.tip_hash()).nth(2).unwrap();
            for height in 5..8 {
                let payload = vec![0xb0; height as usize];
                let txs = vec![Transaction::new_signed(
                    &kp,
                    height - 1,
                    "kvstore",
                    "put",
                    payload,
                )];
                let block = Block::mine(parent, height, txs, 9_000 + height, 0);
                parent = block.hash();
                c.import(block).unwrap();
            }
            assert_eq!(c.tip_header().height, 7);
        }
        twin.sync_with(&twin_chain);
        host.sync_with(&chain);
        assert_eq!(twin.events().len(), 7);
        assert_eq!(host.released, 4);
        assert_eq!(host.events(), &twin.events()[4..]);
        assert_eq!(reads(&host, 4, 9), reads(&twin, 4, 9));
    }

    #[test]
    #[should_panic(expected = "event log position 1 is below the released prefix 2")]
    fn reading_a_released_position_panics() {
        let (_, mut host, _) = host_with_events(4);
        host.release_events(2);
        let _ = host.events_since(1);
    }

    /// The payload buffer the value under `key` shares, if it is a span.
    fn shared_buffer<'a>(storage: &'a Storage, key: &[u8]) -> Option<&'a Arc<[u8]>> {
        match storage.map.get(key)? {
            Value::Shared { payload, .. } => Some(payload),
            Value::Owned(_) => None,
        }
    }

    /// The payload of the one transaction in the main-chain block at
    /// `height`.
    fn payload_at(chain: &Blockchain, height: u64) -> &Arc<[u8]> {
        let (_, block) = chain
            .ancestors(&chain.tip_hash())
            .find(|(_, block)| block.header.height == height)
            .unwrap();
        &block.transactions[0].payload
    }

    #[test]
    fn a_stored_span_reads_back_the_payload_and_shares_its_buffer() {
        let (mut chain, mut host, kp) = setup();
        let payload = b"an entry as it arrived".to_vec();
        let tx = Transaction::new_signed(&kp, 0, "kvstore", "put", payload.clone());
        mine_with(&mut chain, vec![tx], 1_000);
        host.sync_with(&chain);
        let storage = host.storage_of("kvstore").unwrap();
        let key = 0u64.to_be_bytes();
        assert_eq!(storage.get(&key), Some(payload.as_slice()));
        let shared = shared_buffer(storage, &key).expect("stored as a span");
        assert!(Arc::ptr_eq(shared, payload_at(&chain, 1)));
        assert_eq!(Arc::strong_count(shared), 2, "the block and storage");
    }

    /// Stores `payload[1..]` under the key `payload[..1]` as a span of
    /// the payload; `keep_then_fail` then fails the call.
    struct Spans;

    impl SmartContract for Spans {
        fn name(&self) -> &'static str {
            "spans"
        }

        fn execute(
            &self,
            ctx: &mut ExecutionContext<'_>,
            method: &str,
            payload: &[u8],
        ) -> Result<(), String> {
            ctx.store_payload_span(&payload[..1], 1..payload.len());
            match method {
                "keep" => Ok(()),
                _ => Err("requested failure".into()),
            }
        }
    }

    #[test]
    fn a_failed_call_rolls_its_stored_span_back() {
        let mut chain = Blockchain::new(config());
        let mut host = ContractHost::new();
        host.register(Box::new(Spans));
        let kp = Keypair::from_seed(b"host-tests");
        let call = |nonce, method, payload: &[u8]| {
            vec![Transaction::new_signed(
                &kp,
                nonce,
                "spans",
                method,
                payload.to_vec(),
            )]
        };
        mine_with(&mut chain, call(0, "keep", b"kfirst"), 1_000);
        mine_with(&mut chain, call(1, "keep_then_fail", b"ksecond"), 1_001);
        mine_with(&mut chain, call(2, "keep_then_fail", b"xthird"), 1_002);
        host.sync_with(&chain);
        let storage = host.storage_of("spans").unwrap();
        assert_eq!(storage.len(), 1);
        assert_eq!(storage.get(b"k"), Some(&b"first"[..]));
        assert!(Arc::ptr_eq(
            shared_buffer(storage, b"k").unwrap(),
            payload_at(&chain, 1)
        ));
        for height in [2, 3] {
            assert_eq!(
                Arc::strong_count(payload_at(&chain, height)),
                1,
                "a rolled-back span holds no reference to its payload"
            );
        }
        assert_eq!(host.events().len(), 2, "two tx.failed events");
    }

    #[test]
    fn a_reorg_reset_rebuilds_stored_spans_from_the_new_main_chain() {
        let (mut chain, mut host, kp) = setup();
        put(&mut chain, &kp, 0, 1_000);
        let fork_point = chain.tip_hash();
        put(&mut chain, &kp, 1, 1_001);
        host.sync_with(&chain);
        let abandoned = Arc::clone(payload_at(&chain, 2));
        // A heavier branch from the first block replaces the second.
        let mut parent = fork_point;
        for height in [2, 3] {
            let payload = vec![0xb0; height as usize];
            let txs = vec![Transaction::new_signed(
                &kp,
                height - 1,
                "kvstore",
                "put",
                payload,
            )];
            let block = Block::mine(parent, height, txs, 5_000 + height, 0);
            parent = block.hash();
            chain.import(block).unwrap();
        }
        assert_eq!(chain.tip_hash(), parent);
        host.sync_with(&chain);
        let storage = host.storage_of("kvstore").unwrap();
        assert_eq!(storage.len(), 3);
        for (seq, height) in [(0u64, 1), (1, 2), (2, 3)] {
            let key = seq.to_be_bytes();
            let main = payload_at(&chain, height);
            assert_eq!(storage.get(&key), Some(&main[..]));
            assert!(Arc::ptr_eq(shared_buffer(storage, &key).unwrap(), main));
        }
        assert_eq!(
            Arc::strong_count(&abandoned),
            2,
            "only the side-chain block and this test hold the abandoned payload"
        );
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
        assert_eq!(s.get(b"k"), Some(&b"v1"[..]));
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
        assert_eq!(hits[0], (&b"a.1"[..], &b"1"[..]));
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
                s.scan_prefix(&prefix).map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
            let expected: Vec<(Vec<u8>, Vec<u8>)> = reference
                .iter()
                .filter(|(k, _)| k.starts_with(&prefix))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            prop_assert_eq!(scanned, expected);
            let all: Vec<Vec<u8>> = s.scan_prefix(&[]).map(|(k, _)| k.to_vec()).collect();
            prop_assert_eq!(all, reference.keys().cloned().collect::<Vec<_>>());
            for (key, value) in &reference {
                prop_assert_eq!(s.get(key), Some(value.as_slice()));
            }
        }
    }
}
