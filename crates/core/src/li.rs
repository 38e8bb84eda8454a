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
//! [`LoggingInterface::store`] writes once, at the end of the resident
//! buffer, and journals to the backlog WAL from there before the buffer
//! accepts it. The first `resident_cap` encodings stay in the buffer,
//! later ones only in the WAL. A flush submits the buffer behind a count
//! as the `store_log_batch` payload, as it is; when entries spilled, it
//! first reloads the WAL's unconsumed tail, record bytes as they lie.
//! Write-ahead costs no allocation per entry once the buffer has grown
//! to its working size.

use crate::contract::MONITOR_CONTRACT;
use crate::logent::{LogEntry, LogEntryRef};
use drams_chain::error::ChainError;
use drams_chain::node::Node;
use drams_chain::tx::TxId;
use drams_crypto::aead::SymmetricKey;
use drams_crypto::codec::{Encode, Reader, Writer, MAX_VARINT_LEN};
use drams_crypto::schnorr::Keypair;
use drams_store::{Durability, MemBackend, StoreError, Wal, WalConfig};

/// A per-tenant Logging Interface.
#[derive(Debug)]
pub struct LoggingInterface {
    name: String,
    keypair: Keypair,
    batch_size: usize,
    /// The canonical encodings of the resident entries, back to back in
    /// store order: the next `store_log_batch` payload without its count.
    resident: Writer,
    /// How many entries `resident` holds.
    resident_count: usize,
    /// The durable backlog: every buffered entry is written ahead to
    /// this WAL, and a successful flush snapshots the consumed sequence
    /// and prunes sealed segments. A crashed LI reloads its unsubmitted
    /// entries from here ([`LoggingInterface::crash_restart`]).
    backlog: Wal,
    /// While true the chain is unreachable (network partition): entries
    /// keep journaling and buffering past the batch size, but nothing is
    /// submitted until the link heals and a flush drains the spill.
    offline: bool,
    /// High-water mark for the in-memory buffer. Entries past it stay in
    /// the backlog WAL only (they are journaled before buffering anyway)
    /// and are reloaded at the next flush — the resident footprint is
    /// bounded no matter how long an outage lasts. `usize::MAX` (the
    /// default) keeps every entry resident.
    resident_cap: usize,
    /// Entries journaled to the backlog WAL but evicted from (or never
    /// admitted to) the in-memory buffer.
    spilled: usize,
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
            resident: Writer::new(),
            resident_count: 0,
            backlog: mem_wal(64),
            offline: false,
            resident_cap: usize::MAX,
            spilled: 0,
        }
    }

    /// Caps the in-memory buffer at `cap` entries. Past the cap,
    /// [`store`](Self::store) journals entries to the backlog WAL only
    /// and the next flush reloads them. Entries already resident past the
    /// cap leave memory the same way.
    ///
    /// # Panics
    ///
    /// Panics when `cap` is 0.
    pub fn set_resident_cap(&mut self, cap: usize) {
        assert!(cap > 0, "resident cap must be at least 1");
        self.resident_cap = cap;
        if self.resident_count > cap {
            let mut r = Reader::new(self.resident.as_bytes());
            for _ in 0..cap {
                LogEntryRef::decode(&mut r).expect("the buffer holds whole entries");
            }
            let kept = self.resident.len() - r.remaining();
            self.resident.truncate(kept);
            self.spilled += self.resident_count - cap;
            self.resident_count = cap;
        }
    }

    /// Entries journaled and held in memory, not yet submitted. Entries
    /// spilled past the resident cap are not included —
    /// [`Self::buffered`] counts them.
    #[must_use]
    pub(crate) fn resident(&self) -> usize {
        self.resident_count
    }

    /// Marks the chain link down (`true`) or healed (`false`). Going
    /// offline turns [`store`](Self::store) into pure spill — entries
    /// journal to the backlog WAL and accumulate in the buffer; coming
    /// back online does **not** flush by itself, the owner's next flush
    /// tick replays the spill in one batch.
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
    /// [`store`](Self::store): entries journaled so far stay in the WAL
    /// being replaced.
    pub fn attach_backlog(&mut self, wal: Wal) {
        self.backlog = wal;
    }

    /// Restarts the LI process in place. Its memory is lost; its backlog
    /// WAL survives with whatever a power cut preserves under the WAL's
    /// durability policy. The entries journaled after the last flush
    /// snapshot are reloaded, and those past the resident cap spill
    /// again, so the next flush submits exactly what the crashed instance
    /// still owed the chain. The submission counters and the peak restart
    /// at zero (they are in-memory diagnostics), and the LI starts online.
    ///
    /// # Errors
    ///
    /// Propagates WAL recovery failures; [`StoreError::Codec`] when a
    /// journaled entry does not decode.
    pub(crate) fn crash_restart(&mut self) -> Result<(), StoreError> {
        self.backlog.simulate_crash()?;
        self.reload(self.resident_cap)?;
        self.offline = false;
        Ok(())
    }

    /// Rebuilds the buffer from every entry journaled to the backlog WAL
    /// since its last flush snapshot, in journal order: the first `cap`
    /// resident, the rest counted as spilled. A record is copied as it
    /// lies in the WAL once it decodes as an entry. On an error the LI is
    /// left as it was.
    fn reload(&mut self, cap: usize) -> Result<(), StoreError> {
        let consumed = self.backlog.read_snapshot()?.map_or(0, |(seq, _)| seq);
        let mut resident = Writer::new();
        let (mut count, mut spilled) = (0, 0);
        self.backlog.visit_from(consumed, |seq, record| {
            LogEntryRef::from_bytes(record)
                .map_err(|e| StoreError::Codec(format!("backlog record {seq}: {e}")))?;
            if count < cap {
                resident.put_raw(record);
                count += 1;
            } else {
                spilled += 1;
            }
            Ok(())
        })?;
        self.resident = resident;
        self.resident_count = count;
        self.spilled = spilled;
        Ok(())
    }

    /// The LI's name (diagnostics).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Entries buffered (resident or spilled to the backlog WAL) but not
    /// yet submitted.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.resident_count + self.spilled
    }

    /// Buffers an entry; when the batch is full, submits it to `node`.
    ///
    /// Returns the transaction ids produced (empty while buffering).
    ///
    /// # Errors
    ///
    /// Propagates submission failures; the buffer is preserved on error.
    pub fn store(&mut self, entry: LogEntry, node: &mut Node) -> Result<Vec<TxId>, ChainError> {
        // Write-ahead: the entry is durable (per the WAL's durability
        // policy) before the buffer accepts it.
        let start = self.resident.len();
        entry.encode(&mut self.resident);
        if let Err(e) = self.backlog.append(&self.resident.as_bytes()[start..]) {
            self.resident.truncate(start);
            return Err(ChainError::Journal(e.to_string()));
        }
        if self.resident_count < self.resident_cap {
            self.resident_count += 1;
        } else {
            // Past the high-water mark: the entry is already durable in
            // the WAL, so keep only its count in memory. The next flush
            // reloads the full backlog before submitting.
            self.resident.truncate(start);
            self.spilled += 1;
        }
        if !self.offline && self.buffered() >= self.batch_size {
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
    /// Propagates submission failures, with the buffer preserved — a
    /// retry re-submits the same batch. A [`ChainError::Journal`] can
    /// also surface *after* a successful
    /// submission (the compaction bookkeeping failed): the buffer is
    /// then already cleared and the entries are on-chain; the WAL still
    /// covers them, so a later recovery may re-submit the batch, which
    /// the contract's per-(correlation, point) storage keys absorb.
    pub fn flush(&mut self, node: &mut Node) -> Result<Vec<TxId>, ChainError> {
        if self.buffered() == 0 || self.offline {
            return Ok(Vec::new());
        }
        if self.spilled > 0 {
            // Entries past the resident cap live only in the backlog
            // WAL. Reload the whole unconsumed tail (resident entries
            // were journaled in the same order, so a full rebuild keeps
            // submission order identical to an uncapped LI).
            self.reload(usize::MAX)
                .map_err(|e| ChainError::Journal(e.to_string()))?;
        }
        // The payload is the count, then the resident encodings as they
        // are, signed with the keypair's cached public key (no per-batch
        // key re-derivation).
        let entries = self.resident.as_bytes();
        let mut payload = Writer::with_capacity(MAX_VARINT_LEN + entries.len());
        payload.put_varint(self.resident_count as u64);
        payload.put_raw(entries);
        let id = node.submit_call(
            &self.keypair,
            MONITOR_CONTRACT,
            "store_log_batch",
            payload.into_bytes(),
        )?;
        self.resident.clear();
        self.resident_count = 0;
        // Everything journaled so far is now owed by the chain, not by
        // us: snapshot the consumed sequence and drop sealed segments. (A
        // crash between the submit above and this marker cannot happen
        // mid-call in the simulation; on real hardware it would
        // re-submit, which the mempool's duplicate detection absorbs.)
        let wal = &mut self.backlog;
        let consumed = wal.next_seq();
        wal.write_snapshot(consumed, &[])
            .and_then(|()| wal.prune_through(consumed).map(|_| ()))
            .map_err(|e| ChainError::Journal(e.to_string()))?;
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

    /// The resident entries, read in place from the buffer, which must
    /// hold exactly that many whole entries.
    fn resident_entries(li: &LoggingInterface) -> Vec<LogEntryRef<'_>> {
        let mut r = Reader::new(li.resident.as_bytes());
        let entries = (0..li.resident())
            .map(|_| LogEntryRef::decode(&mut r).unwrap())
            .collect();
        r.finish().unwrap();
        entries
    }

    fn resident_correlations(li: &LoggingInterface) -> Vec<u64> {
        resident_entries(li)
            .iter()
            .map(|e| e.correlation.0)
            .collect()
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

    #[test]
    fn resident_cap_spills_to_wal_and_flush_submits_everything_in_order() {
        let mut n = node();
        let (mut li, mut probe) = li(100);
        li.attach_backlog(mem_wal(4));
        li.set_resident_cap(3);
        li.set_offline(true);
        for corr in 1..=10 {
            li.store(sample_entry(&mut probe, corr), &mut n).unwrap();
        }
        assert_eq!(li.buffered(), 10, "logical depth counts the spill");
        assert_eq!(
            resident_correlations(&li),
            [1, 2, 3],
            "resident stays capped"
        );
        assert_eq!(li.spilled, 7);
        li.set_offline(false);
        let ids = li.flush(&mut n).unwrap();
        assert_eq!(ids.len(), 1);
        assert_eq!(li.spilled, 0);
        n.mine_block(100).unwrap();
        let storage = n.host().storage_of(MONITOR_CONTRACT).unwrap();
        assert_eq!(storage.scan_prefix(b"ent/").count(), 10);
    }

    #[test]
    fn crash_with_spilled_entries_recovers_the_full_backlog() {
        let mut n = node();
        let (mut li, mut probe) = li(100);
        li.attach_backlog(mem_wal(4));
        li.set_resident_cap(2);
        li.set_offline(true);
        for corr in 1..=6 {
            li.store(sample_entry(&mut probe, corr), &mut n).unwrap();
        }
        assert_eq!(li.spilled, 4);
        li.crash_restart().unwrap();
        assert_eq!(li.buffered(), 6, "spilled entries survive too");
        assert_eq!(li.spilled, 4, "the restarted LI keeps its cap");
        assert_eq!(
            resident_correlations(&li),
            [1, 2],
            "the oldest stay resident"
        );
        let ids = li.flush(&mut n).unwrap();
        assert_eq!(ids.len(), 1);
        n.mine_block(100).unwrap();
        let storage = n.host().storage_of(MONITOR_CONTRACT).unwrap();
        assert_eq!(storage.scan_prefix(b"ent/").count(), 6);
    }

    #[test]
    fn capping_a_recovered_li_spills_its_reloaded_backlog() {
        let mut n = node();
        let (mut li, mut probe) = li(100);
        li.attach_backlog(mem_wal(4));
        li.set_offline(true);
        for corr in 1..=6 {
            li.store(sample_entry(&mut probe, corr), &mut n).unwrap();
        }
        li.crash_restart().unwrap();
        assert_eq!(
            resident_correlations(&li),
            [1, 2, 3, 4, 5, 6],
            "journal order is submission order"
        );
        li.set_resident_cap(2);
        assert_eq!(li.buffered(), 6);
        assert_eq!(li.spilled, 4);
        assert_eq!(resident_correlations(&li), [1, 2]);
        let ids = li.flush(&mut n).unwrap();
        assert_eq!(ids.len(), 1);
        n.mine_block(100).unwrap();
        let storage = n.host().storage_of(MONITOR_CONTRACT).unwrap();
        assert_eq!(storage.scan_prefix(b"ent/").count(), 6);
    }

    /// Every batch the main chain holds, as its entries, in block order.
    fn chain_batches(n: &Node) -> Vec<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        for height in 1..=n.chain().tip_header().height {
            let block = n.chain().block_at_height(height).unwrap();
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
    /// of batch size 4 and resident cap 2. `crashes_after(step)` is how
    /// often the LI crash-restarts after that step (0 = before the first
    /// store); a final flush then drains it.
    fn scripted_run(crashes_after: impl Fn(u64) -> usize) -> Vec<Vec<Vec<u8>>> {
        let mut n = node();
        let (mut li, mut probe) = li(4);
        li.set_resident_cap(2);
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
        Cap(usize),
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
                Step::Cap(cap) => {
                    li.set_resident_cap(cap);
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
        use Step::{Cap, Crash, Flush, Offline, Store};
        let stores = |range: std::ops::RangeInclusive<u64>| range.map(Store);
        let plain: Vec<Step> = stores(1..=7).chain([Flush]).collect();
        let capped: Vec<Step> = [Cap(2)]
            .into_iter()
            .chain(stores(1..=6))
            .chain([Flush])
            .collect();
        let healed: Vec<Step> = [Offline(true)]
            .into_iter()
            .chain(stores(1..=5))
            .chain([Flush, Offline(false), Flush])
            .chain(stores(6..=7))
            .collect();
        let crashed_spill: Vec<Step> = [Cap(2), Offline(true)]
            .into_iter()
            .chain(stores(1..=6))
            .chain([Crash, Flush])
            .collect();
        let capped_after_crash: Vec<Step> = [Offline(true)]
            .into_iter()
            .chain(stores(1..=6))
            .chain([Crash, Cap(2), Flush])
            .collect();
        for (what, batch, steps, submissions) in [
            ("plain batches", 3, plain, 3),
            ("resident cap with spill", 100, capped, 1),
            ("offline then heal", 2, healed, 2),
            ("crash with spilled entries", 100, crashed_spill, 1),
            ("cap set on a recovered LI", 100, capped_after_crash, 1),
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
