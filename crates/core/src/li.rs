//! The Logging Interface.
//!
//! Paper §II: the LI "exposes to agents endpoints for storing data and
//! managing security alert events generated by smart-contracts" and
//! "provides symmetric encryption and decryption functions". One LI runs
//! per tenant (Figure 1); it batches probe observations and signs them
//! as blockchain transactions. It holds no payload key: the probes seal
//! each payload, and the Analyser opens it with its own copy of the key
//! through `LogEntryRef::open_payload_into`.
//!
//! An unflushed entry has one form in the LI: the canonical encoding
//! [`LoggingInterface::store`] writes once and journals to the backlog
//! WAL. The WAL is the LI's only buffer; memory holds just how many
//! entries it owes and their encoded size. A flush reads the WAL's
//! unconsumed tail into the `store_log_batch` payload behind its count,
//! record bytes as they lie, so a crash-restarted LI submits exactly what
//! an uncrashed one would. Write-ahead costs no allocation per entry once
//! the WAL's files have grown to their working size.

use crate::contract::MONITOR_CONTRACT;
use crate::logent::{LogEntry, LogEntryRef};
use drams_chain::error::ChainError;
use drams_chain::node::Node;
use drams_chain::tx::TxId;
use drams_crypto::aead::SymmetricKey;
use drams_crypto::codec::{varint, Encode, Writer};
use drams_crypto::schnorr::Keypair;
use drams_store::{Durability, MemBackend, StoreError, Wal, WalConfig};

/// A per-tenant Logging Interface.
#[derive(Debug)]
pub struct LoggingInterface {
    name: String,
    keypair: Keypair,
    batch_size: usize,
    /// The canonical encoding of the entry [`LoggingInterface::store`] is
    /// journaling, kept so that encoding reuses its capacity.
    encoded: Writer,
    /// The durable backlog and the only copy of every unflushed entry:
    /// its last `unflushed` records. A successful flush snapshots the
    /// consumed sequence and prunes sealed segments, and a crashed LI
    /// counts what it still owes from here
    /// ([`LoggingInterface::crash_restart`]).
    backlog: Wal,
    /// How many entries the backlog holds past the consumed sequence.
    unflushed: usize,
    /// Their encodings' total length, which sizes the next payload.
    unflushed_bytes: usize,
    /// While true the chain is unreachable (network partition): entries
    /// keep journaling past the batch size, but nothing is submitted
    /// until the link heals and a flush drains the backlog.
    offline: bool,
}

impl LoggingInterface {
    /// Creates an LI.
    ///
    /// `batch_size` controls how many entries ride in one
    /// `store_log_batch` transaction (the E8 ablation sweeps it); at 1
    /// every entry is a one-entry batch. The backlog is an in-memory WAL
    /// of 64-record segments that flushes every record;
    /// [`attach_backlog`](Self::attach_backlog) picks another medium.
    ///
    /// `_key` is ignored: the LI seals and opens no payload. The
    /// parameter stays so that existing callers keep compiling.
    ///
    /// # Panics
    ///
    /// Panics when `batch_size` is 0.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        _key: SymmetricKey,
        keypair: Keypair,
        batch_size: usize,
    ) -> Self {
        assert!(batch_size > 0, "batch size must be at least 1");
        LoggingInterface {
            name: name.into(),
            keypair,
            batch_size,
            encoded: Writer::new(),
            backlog: mem_wal(64),
            unflushed: 0,
            unflushed_bytes: 0,
            offline: false,
        }
    }

    /// Does nothing: unflushed entries live only in the backlog WAL, so
    /// there is no resident buffer to cap. Kept because the frozen repo
    /// benchmark (`benchmark/`) calls it.
    ///
    /// # Panics
    ///
    /// Panics when `cap` is 0.
    pub fn set_resident_cap(&mut self, cap: usize) {
        assert!(cap > 0, "resident cap must be at least 1");
    }

    /// Marks the chain link down (`true`) or healed (`false`). Going
    /// offline turns [`store`](Self::store) into pure journaling;
    /// coming back online does **not** flush by itself, the owner's next
    /// flush tick replays the backlog in one batch.
    pub(crate) fn set_offline(&mut self, offline: bool) {
        self.offline = offline;
    }

    /// Whether the LI currently considers the chain unreachable.
    #[must_use]
    pub(crate) fn is_offline(&self) -> bool {
        self.offline
    }

    /// Replaces the backlog WAL with `wal`, on another medium or under
    /// another durability policy. Call it before the first
    /// [`store`](Self::store): nothing may be buffered yet. Public because
    /// the frozen repo benchmark (`benchmark/`) calls it.
    pub fn attach_backlog(&mut self, wal: Wal) {
        debug_assert_eq!(self.unflushed, 0, "a backlog attached with entries owed");
        self.backlog = wal;
    }

    /// Restarts the LI process in place. Its memory is lost; its backlog
    /// WAL survives with whatever a power cut preserves under the WAL's
    /// durability policy. The entries journaled after the last flush
    /// snapshot are counted and checked to decode, so the next flush
    /// submits exactly what the crashed instance still owed the chain.
    /// The LI starts online. On an error the LI is left as it was.
    ///
    /// # Errors
    ///
    /// Propagates WAL recovery failures; [`StoreError::Codec`] when a
    /// journaled entry does not decode.
    pub(crate) fn crash_restart(&mut self) -> Result<(), StoreError> {
        self.backlog.simulate_crash()?;
        let consumed = self.backlog.read_snapshot()?.map_or(0, |(seq, _)| seq);
        let (mut count, mut bytes) = (0, 0);
        self.backlog.visit_from(consumed, |seq, record| {
            LogEntryRef::from_bytes(record)
                .map_err(|e| StoreError::Codec(format!("backlog record {seq}: {e}")))?;
            count += 1;
            bytes += record.len();
            Ok(())
        })?;
        self.unflushed = count;
        self.unflushed_bytes = bytes;
        self.offline = false;
        Ok(())
    }

    /// The LI's name (diagnostics).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Entries journaled to the backlog WAL but not yet submitted.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.unflushed
    }

    /// Journals an entry; when the batch is full, submits it to `node`.
    ///
    /// Returns the transaction ids produced (empty while buffering).
    ///
    /// # Errors
    ///
    /// Propagates journaling and submission failures; the backlog is
    /// preserved on error.
    pub fn store(&mut self, entry: LogEntry, node: &mut Node) -> Result<Vec<TxId>, ChainError> {
        self.encoded.clear();
        entry.encode(&mut self.encoded);
        let seq = self.backlog.next_seq();
        let journaled = self.backlog.append(self.encoded.as_bytes());
        // A record the WAL took is owed, even if its sync then failed.
        if self.backlog.next_seq() > seq {
            self.unflushed += 1;
            self.unflushed_bytes += self.encoded.len();
        }
        journaled.map_err(|e| ChainError::Journal(e.to_string()))?;
        if !self.offline && self.unflushed >= self.batch_size {
            self.flush(node)
        } else {
            Ok(Vec::new())
        }
    }

    /// Submits all buffered entries now (e.g. on a flush-interval tick)
    /// as one `store_log_batch` transaction, and returns its id (none
    /// when nothing is buffered or the LI is offline).
    ///
    /// # Errors
    ///
    /// [`ChainError::Journal`] when the backlog cannot be read, and
    /// submission failures; the backlog is kept, so a retry re-submits
    /// the same batch. A [`ChainError::Journal`] after a successful
    /// submission (a failed snapshot or prune) leaves the entries on-chain
    /// and no longer owed; a later recovery may re-submit them, which the
    /// contract's per-(correlation, point) storage keys absorb.
    pub fn flush(&mut self, node: &mut Node) -> Result<Vec<TxId>, ChainError> {
        if self.unflushed == 0 || self.offline {
            return Ok(Vec::new());
        }
        let journal = |e: StoreError| ChainError::Journal(e.to_string());
        // The payload is the count, then the backlog's unconsumed records
        // as they lie, in an exactly sized buffer, signed with the
        // keypair's cached public key (no per-batch key re-derivation).
        let (count, count_len) = varint(self.unflushed as u64);
        let mut payload = Writer::with_capacity(count_len + self.unflushed_bytes);
        payload.put_raw(&count[..count_len]);
        let wal = &mut self.backlog;
        wal.visit_from(wal.next_seq() - self.unflushed as u64, |_, record| {
            payload.put_raw(record);
            Ok(())
        })
        .map_err(journal)?;
        let id = node.submit_call(
            &self.keypair,
            MONITOR_CONTRACT,
            "store_log_batch",
            payload.into_bytes(),
        )?;
        self.unflushed = 0;
        self.unflushed_bytes = 0;
        // The chain now owes everything journaled so far: snapshot the
        // consumed sequence and drop sealed segments. (A crash before the
        // snapshot would re-submit, which duplicate detection absorbs.)
        let consumed = wal.next_seq();
        wal.write_snapshot(consumed, &[])
            .and_then(|()| wal.prune_through(consumed).map(|_| ()))
            .map_err(journal)?;
        Ok(vec![id])
    }
}

/// A fresh write-ahead log on the in-memory medium, flushed record by
/// record so a crash loses nothing it acknowledged.
pub(crate) fn mem_wal(segment_records: usize) -> Wal {
    Wal::open(
        Box::new(MemBackend::new()),
        WalConfig {
            segment_records,
            durability: Durability::Flushed,
        },
    )
    .expect("fresh in-memory wal")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{encode_batch, read_batch, MonitorContract};
    use crate::logent::{ObservationPoint, ProbeId};
    use crate::probe::Probe;
    use drams_chain::chain::ChainConfig;
    use drams_crypto::codec::Decode;
    use drams_faas::model::{PepId, TenantId};
    use drams_faas::msg::{CorrelationId, RequestEnvelope};
    use drams_policy::attr::Request;

    fn node() -> Node {
        let mut n = Node::new(ChainConfig {
            initial_difficulty_bits: 0,
            retarget_interval: 0,
            ..ChainConfig::default()
        });
        n.register_contract(Box::new(MonitorContract));
        let admin = Keypair::from_seed(b"admin");
        let payload = MonitorContract::init_payload(
            10_000,
            Keypair::from_seed(b"analyser").public().fingerprint(),
        );
        n.submit_call(&admin, MONITOR_CONTRACT, "init", payload)
            .unwrap();
        n.mine_block(0).unwrap();
        n
    }

    fn sample_entry(probe: &mut Probe, corr: u64) -> LogEntry {
        let env = RequestEnvelope {
            correlation: CorrelationId(corr),
            tenant: TenantId(1),
            pep: PepId(1),
            service: "svc".into(),
            request: Request::builder().subject("role", "doctor").build(),
            issued_at: 10,
        };
        probe.observe_request(ObservationPoint::PepRequest, &env, 20)
    }

    /// The federation key the tests' probe seals under.
    fn payload_key() -> SymmetricKey {
        SymmetricKey::from_bytes([5; 32])
    }

    fn li(batch: usize) -> (LoggingInterface, Probe) {
        let li = LoggingInterface::new(
            "li-tenant-1",
            payload_key(),
            Keypair::from_seed(b"li-1"),
            batch,
        );
        let probe = Probe::new(ProbeId(1), payload_key(), [6; 32]);
        (li, probe)
    }

    /// The correlations of the entries the LI owes, in journal order,
    /// read from its backlog's unconsumed tail.
    fn resident_correlations(li: &LoggingInterface) -> Vec<u64> {
        let wal = &li.backlog;
        let mut correlations = Vec::new();
        wal.visit_from(wal.next_seq() - li.unflushed as u64, |_, record| {
            correlations.push(LogEntryRef::from_bytes(record).unwrap().correlation.0);
            Ok(())
        })
        .unwrap();
        correlations
    }

    #[test]
    fn unbatched_store_submits_immediately() {
        let mut n = node();
        let (mut li, mut probe) = li(1);
        let ids = li.store(sample_entry(&mut probe, 1), &mut n).unwrap();
        assert_eq!(ids.len(), 1);
        assert_eq!(li.buffered(), 0);
        n.mine_block(100).unwrap();
        assert_eq!(n.chain().confirmations(&ids[0]), Some(1));
    }

    #[test]
    fn batching_accumulates_then_submits_one_tx() {
        let mut n = node();
        let (mut li, mut probe) = li(4);
        for corr in 1..4 {
            assert!(li
                .store(sample_entry(&mut probe, corr), &mut n)
                .unwrap()
                .is_empty());
        }
        assert_eq!(li.buffered(), 3);
        let ids = li.store(sample_entry(&mut probe, 4), &mut n).unwrap();
        assert_eq!(ids.len(), 1, "4 entries in one tx");
        n.mine_block(100).unwrap();
        // all four entries landed in contract storage
        let storage = n.host().storage_of(MONITOR_CONTRACT).unwrap();
        assert_eq!(storage.scan_prefix(b"ent/").count(), 4);
    }

    #[test]
    fn flush_drains_partial_batches() {
        let mut n = node();
        let (mut li, mut probe) = li(10);
        li.store(sample_entry(&mut probe, 1), &mut n).unwrap();
        li.store(sample_entry(&mut probe, 2), &mut n).unwrap();
        let ids = li.flush(&mut n).unwrap();
        assert_eq!(ids.len(), 1);
        assert_eq!(li.buffered(), 0);
        assert!(li.flush(&mut n).unwrap().is_empty());
    }

    #[test]
    fn decrypt_round_trips_payload() {
        let (_, mut probe) = li(1);
        let entry = sample_entry(&mut probe, 9);
        let mut plain = Vec::new();
        entry
            .view()
            .open_payload_into(&payload_key(), &mut plain)
            .unwrap();
        let env = RequestEnvelope::from_canonical_bytes(&plain).unwrap();
        assert_eq!(env.correlation, CorrelationId(9));
    }

    #[test]
    fn decrypt_fails_with_wrong_key() {
        let (_, mut probe) = li(1);
        let entry = sample_entry(&mut probe, 9);
        let wrong = SymmetricKey::from_bytes([9; 32]);
        assert!(entry
            .view()
            .open_payload_into(&wrong, &mut Vec::new())
            .is_err());
    }

    #[test]
    fn decrypt_fails_when_header_swapped() {
        // A compromised LI cannot splice a sealed payload under another
        // correlation id: the AAD binding breaks.
        let (_, mut probe) = li(1);
        let mut entry = sample_entry(&mut probe, 9);
        entry.correlation = CorrelationId(10);
        assert!(entry
            .view()
            .open_payload_into(&payload_key(), &mut Vec::new())
            .is_err());
    }

    #[test]
    fn crashed_li_recovers_its_unflushed_backlog() {
        let mut n = node();
        let (mut li, mut probe) = li(10);
        li.attach_backlog(mem_wal(4));
        for corr in 1..=3 {
            li.store(sample_entry(&mut probe, corr), &mut n).unwrap();
        }
        assert_eq!(li.buffered(), 3);
        // The LI process dies with 3 entries unsubmitted.
        li.crash_restart().unwrap();
        assert_eq!(li.buffered(), 3, "backlog survives the crash");
        assert_eq!(resident_correlations(&li), [1, 2, 3]);
        let ids = li.flush(&mut n).unwrap();
        assert_eq!(ids.len(), 1);
        n.mine_block(100).unwrap();
        let storage = n.host().storage_of(MONITOR_CONTRACT).unwrap();
        assert_eq!(storage.scan_prefix(b"ent/").count(), 3);
    }

    #[test]
    fn flush_compacts_the_backlog_so_recovery_does_not_resubmit() {
        let mut n = node();
        let (mut li, mut probe) = li(2);
        li.attach_backlog(mem_wal(4));
        // Two entries flush (batch full), a third stays buffered.
        for corr in 1..=3 {
            li.store(sample_entry(&mut probe, corr), &mut n).unwrap();
        }
        assert_eq!(li.buffered(), 1);
        li.crash_restart().unwrap();
        assert_eq!(li.buffered(), 1, "flushed entries are not recovered");
        assert_eq!(resident_correlations(&li), [3]);
    }

    #[test]
    fn offline_li_spills_past_the_batch_size_and_replays_on_heal() {
        let mut n = node();
        let (mut li, mut probe) = li(2);
        li.attach_backlog(mem_wal(4));
        li.set_offline(true);
        // 5 entries with batch size 2: every one spills, none submit.
        for corr in 1..=5 {
            assert!(li
                .store(sample_entry(&mut probe, corr), &mut n)
                .unwrap()
                .is_empty());
        }
        assert_eq!(li.buffered(), 5);
        assert!(li.is_offline());
        assert!(li.flush(&mut n).unwrap().is_empty(), "offline flush no-ops");
        // Heal: one flush replays the whole spill in a single batch tx.
        li.set_offline(false);
        let ids = li.flush(&mut n).unwrap();
        assert_eq!(ids.len(), 1);
        n.mine_block(100).unwrap();
        let storage = n.host().storage_of(MONITOR_CONTRACT).unwrap();
        assert_eq!(storage.scan_prefix(b"ent/").count(), 5);
    }

    #[test]
    fn crash_while_offline_recovers_the_whole_spill() {
        let mut n = node();
        let (mut li, mut probe) = li(2);
        li.attach_backlog(mem_wal(4));
        li.set_offline(true);
        for corr in 1..=4 {
            li.store(sample_entry(&mut probe, corr), &mut n).unwrap();
        }
        li.crash_restart().unwrap();
        assert_eq!(li.buffered(), 4, "spill survives the crash");
        assert!(!li.is_offline(), "recovery starts optimistic");
    }

    /// Every batch the main chain holds, as its entries, in block order.
    fn chain_batches(n: &Node) -> Vec<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        let chain = n.chain();
        let main: Vec<_> = chain.ancestors(&chain.tip_hash()).collect();
        for (_, block) in main.into_iter().rev() {
            for tx in block
                .transactions
                .iter()
                .filter(|tx| tx.method == "store_log_batch")
            {
                let mut entries = Vec::new();
                read_batch(&tx.payload, |_, span| {
                    entries.push(tx.payload[span].to_vec());
                    Ok(())
                })
                .unwrap();
                out.push(entries);
            }
        }
        out
    }

    /// Twenty `store`s with a `flush` after every seventh, through an LI
    /// of batch size 4. `crashes_after(step)` is how
    /// often the LI crash-restarts after that step (0 = before the first
    /// store); a final flush then drains it.
    fn scripted_run(crashes_after: impl Fn(u64) -> usize) -> Vec<Vec<Vec<u8>>> {
        let mut n = node();
        let (mut li, mut probe) = li(4);
        for step in 0..=20 {
            if step > 0 {
                li.store(sample_entry(&mut probe, step), &mut n).unwrap();
                if step % 7 == 0 {
                    li.flush(&mut n).unwrap();
                }
            }
            for _ in 0..crashes_after(step) {
                li.crash_restart().unwrap();
            }
        }
        li.flush(&mut n).unwrap();
        assert_eq!(li.buffered(), 0);
        n.mine_block(100).unwrap();
        chain_batches(&n)
    }

    #[test]
    fn a_crash_after_any_step_leaves_the_chain_holding_the_same_batches() {
        let uncrashed = scripted_run(|_| 0);
        assert_eq!(uncrashed.iter().map(Vec::len).sum::<usize>(), 20);
        for k in 0..=20 {
            let crashed = scripted_run(|step| usize::from(step == k));
            assert_eq!(crashed, uncrashed, "crash after step {k}");
        }
        let twice = scripted_run(|step| if step == 9 { 2 } else { 0 });
        assert_eq!(twice, uncrashed, "two crashes in a row after step 9");
    }

    /// One thing a test does to an LI.
    #[derive(Clone, Copy)]
    enum Step {
        Store(u64),
        Flush,
        Offline(bool),
        Crash,
    }

    /// Runs `steps` through an LI of batch size `batch`, checking that
    /// every payload it submits is `encode_batch` of the entries stored
    /// since the previous submission, in store order. Returns how many
    /// it submitted.
    fn submitted_payloads_are_the_stored_entries(batch: usize, steps: &[Step]) -> usize {
        let mut n = node();
        let (mut li, mut probe) = li(batch);
        li.attach_backlog(mem_wal(4));
        let mut owed: Vec<LogEntry> = Vec::new();
        let mut submitted = 0;
        for &step in steps {
            let ids = match step {
                Step::Store(corr) => {
                    let entry = sample_entry(&mut probe, corr);
                    owed.push(entry.clone());
                    li.store(entry, &mut n).unwrap()
                }
                Step::Flush => li.flush(&mut n).unwrap(),
                Step::Offline(offline) => {
                    li.set_offline(offline);
                    Vec::new()
                }
                Step::Crash => {
                    li.crash_restart().unwrap();
                    Vec::new()
                }
            };
            for id in ids {
                let tx = n.pending_transactions().find(|tx| tx.id() == id).unwrap();
                assert_eq!(tx.payload[..], encode_batch(&owed));
                owed.clear();
                submitted += 1;
            }
        }
        assert!(owed.is_empty(), "the steps end with nothing owed");
        assert_eq!(li.buffered(), 0);
        submitted
    }

    #[test]
    fn every_payload_is_the_encoding_of_the_entries_stored_since_the_last() {
        use Step::{Crash, Flush, Offline, Store};
        let stores = |range: std::ops::RangeInclusive<u64>| range.map(Store);
        let plain: Vec<Step> = stores(1..=7).chain([Flush]).collect();
        let unbatched: Vec<Step> = stores(1..=6).chain([Flush]).collect();
        let healed: Vec<Step> = [Offline(true)]
            .into_iter()
            .chain(stores(1..=5))
            .chain([Flush, Offline(false), Flush])
            .chain(stores(6..=7))
            .collect();
        let crashed_offline: Vec<Step> = [Offline(true)]
            .into_iter()
            .chain(stores(1..=6))
            .chain([Crash, Flush])
            .collect();
        for (what, batch, steps, submissions) in [
            ("plain batches", 3, plain, 3),
            ("a batch larger than the stores", 100, unbatched, 1),
            ("offline then heal", 2, healed, 2),
            ("crash while offline", 100, crashed_offline, 1),
        ] {
            assert_eq!(
                submitted_payloads_are_the_stored_entries(batch, &steps),
                submissions,
                "{what}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "batch size must be at least 1")]
    fn zero_batch_size_panics() {
        let _ = LoggingInterface::new(
            "x",
            SymmetricKey::from_bytes([0; 32]),
            Keypair::from_seed(b"x"),
            0,
        );
    }
}
