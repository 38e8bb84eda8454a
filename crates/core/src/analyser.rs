//! The Analyser service.
//!
//! Paper §II: "The Analyser is a standalone entity logically placed within
//! the Infrastructural Tenant, but deployed within a different cloud
//! section with respect to the access control components. It dynamically
//! consumes and evaluates the gathered logs to ensure the correct
//! enforcement of access decisions."
//!
//! The service watches the monitor contract for `group.complete` events,
//! pulls the four log entries of each completed group from contract
//! storage, verifies the per-probe MACs (compromised-LI detection),
//! decrypts the payloads with the federation key, re-evaluates the request
//! against its own authorised policy copy (the formally-grounded check of
//! ref \[8\]), cross-checks the enforced outcome, and records every finding
//! on-chain via `report_violation`.

use crate::alert::{Alert, AlertKind};
use crate::contract::{GROUP_COMPLETE_EVENT, MONITOR_CONTRACT};
use crate::li::decrypt_entry_payload;
use crate::logent::{LogEntry, ObservationPoint, ProbeId};
use drams_analysis::verify::{DecisionVerifier, Verdict, Violation};
use drams_chain::node::Node;
use drams_crypto::aead::SymmetricKey;
use drams_crypto::codec::{Decode, Reader, Writer};
use drams_crypto::hmac::HmacKey;
use drams_crypto::schnorr::Keypair;
use drams_faas::des::SimTime;
use drams_faas::msg::{CorrelationId, RequestEnvelope, ResponseEnvelope};
use drams_policy::decision::Decision;
use drams_policy::parser::{parse_policy_set, to_source};
use drams_policy::policy::PolicySet;
use drams_store::{SnapshotStore, StoreError};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Most correlations retired per poll — bounds the `retire_groups`
/// transaction payload regardless of how deep the retirement backlog
/// gets during a flash crowd.
const RETIRE_BATCH_MAX: usize = 512;

/// One recorded policy-administration action, kept so a verification
/// checkpoint can replay the authorised-version history exactly.
#[derive(Debug, Clone)]
enum PolicyLogEntry {
    /// [`Analyser::publish_authorised_policy`] at a virtual time.
    /// ([`Analyser::set_authorised_policy`] needs no variant: it resets
    /// `initial_policy` and clears the log instead.)
    Publish(String, SimTime),
}

/// Version byte of the checkpoint encoding, leading both of its records.
/// Version 2 added the fork sweep: its enable flag and the set of
/// already-alerted fork points. Version 3 added windowed group
/// retirement: the lag, the retired counter and the pending-retirement
/// queue. Version 4 added authorised-policy history retention: the
/// retention horizon and the retired-version counter. Version 5 split the
/// single record in two — a cursor record written by every checkpoint and
/// a policy-history record written only when the history changed (see
/// [`Analyser::checkpoint`]).
const CHECKPOINT_VERSION: u8 = 5;

/// One probe's MAC key as the Analyser holds it: the raw bytes, which the
/// checkpoint persists, and the context keyed from them once, which
/// every entry of that probe is verified with.
struct ProbeMacKey {
    raw: [u8; 32],
    keyed: HmacKey,
}

impl From<[u8; 32]> for ProbeMacKey {
    fn from(raw: [u8; 32]) -> Self {
        ProbeMacKey {
            keyed: HmacKey::new(&raw),
            raw,
        }
    }
}

/// The DRAMS Analyser.
pub struct Analyser {
    verifier: DecisionVerifier,
    key: SymmetricKey,
    keypair: Keypair,
    probe_mac_keys: BTreeMap<ProbeId, ProbeMacKey>,
    event_cursor: usize,
    checked_groups: u64,
    /// Hash of the last main-chain block whose signatures were audited.
    /// A hash (not a height) so a reorg that swaps in blocks below the
    /// old tip forces a re-audit from the fork point.
    audited_tip: drams_chain::block::BlockHash,
    audited_txs: u64,
    /// The initial authorised policy and every later administration
    /// action, as parser source text — the durable form of the
    /// verifier's authorised-version history.
    initial_policy: String,
    policy_log: Vec<PolicyLogEntry>,
    /// Generation of the policy-history record that holds
    /// `initial_policy` + `policy_log` as of the last checkpoint that
    /// wrote one (0 = none written yet).
    history_generation: u64,
    /// Whether `initial_policy` / `policy_log` changed since that record
    /// was written, i.e. whether the next checkpoint must write a new
    /// one. Set by construction, [`Analyser::set_authorised_policy`],
    /// [`Analyser::publish_authorised_policy`] and a history prune that
    /// cut the log.
    history_dirty: bool,
    /// Opt-in sibling-block sweep (see [`Analyser::enable_fork_detection`]).
    /// Off by default: a library caller importing historical forks for
    /// analysis must not be flooded with alerts.
    fork_detection: bool,
    /// Parent hashes whose sibling groups were already reported, so a
    /// persisting fork is alerted exactly once across polls (and across
    /// Analyser restarts — the set is checkpointed).
    alerted_fork_parents: BTreeSet<[u8; 32]>,
    /// Optional durable checkpoint. When attached, [`Analyser::checkpoint`]
    /// persists cursors and probe keys every time and the policy history
    /// when it changed, and [`Analyser::recover`] resumes a restarted
    /// Analyser without re-scanning the chain or re-raising alerts.
    checkpoint_store: Option<SnapshotStore>,
    /// Windowed decision-group retirement (see
    /// [`Analyser::enable_group_retirement`]). `0` = off.
    retire_lag: SimTime,
    /// Groups checked but not yet old enough to retire, oldest first
    /// (check times are monotone, so this stays sorted by construction).
    pending_retire: VecDeque<(SimTime, CorrelationId)>,
    /// Correlations whose evidence retirement has been submitted on-chain.
    groups_retired: u64,
    /// Authorised-policy history retention (see
    /// [`Analyser::enable_history_retention`]). `0` = keep forever.
    history_retention: SimTime,
    /// Superseded policy versions dropped by the retention horizon.
    policy_history_retired: u64,
}

impl std::fmt::Debug for Analyser {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Analyser")
            .field("checked_groups", &self.checked_groups)
            .field("authorised_version", &self.verifier.authorised_version())
            .finish_non_exhaustive()
    }
}

impl Analyser {
    /// Creates an analyser pinned to the authorised policy.
    ///
    /// `probe_mac_keys` are obtained from the tenant TPMs at provisioning
    /// time; `keypair` must match the address registered with the monitor
    /// contract's `init`.
    #[must_use]
    pub fn new(
        authorised_policy: PolicySet,
        key: SymmetricKey,
        keypair: Keypair,
        probe_mac_keys: BTreeMap<ProbeId, [u8; 32]>,
    ) -> Self {
        let initial_policy = to_source(&authorised_policy);
        Analyser {
            verifier: DecisionVerifier::new(authorised_policy),
            key,
            keypair,
            probe_mac_keys: probe_mac_keys
                .into_iter()
                .map(|(probe, key)| (probe, key.into()))
                .collect(),
            event_cursor: 0,
            checked_groups: 0,
            audited_tip: drams_chain::block::BlockHash::ZERO,
            audited_txs: 0,
            initial_policy,
            policy_log: Vec::new(),
            history_generation: 0,
            history_dirty: true,
            fork_detection: false,
            alerted_fork_parents: BTreeSet::new(),
            checkpoint_store: None,
            retire_lag: 0,
            pending_retire: VecDeque::new(),
            groups_retired: 0,
            history_retention: 0,
            policy_history_retired: 0,
        }
    }

    /// Turns on authorised-policy history retention: after each poll,
    /// versions retired more than `retention` before the oldest unretired
    /// observation epoch (or `now` when nothing is pending) are dropped
    /// from the verifier's history and from the durable policy log —
    /// the last unbounded structure under sustained policy churn.
    /// `retention` must cover the longest a legitimately in-flight
    /// decision can take to reach a completed group (the PEP retry
    /// budget plus fault-settle slack); late decisions citing a pruned
    /// version alert as policy swaps, which is the desired behaviour for
    /// a PDP stuck that far in the past. Off by default.
    pub fn enable_history_retention(&mut self, retention: SimTime) {
        self.history_retention = retention;
    }

    /// Distinct authorised policy versions currently held (the bounded
    /// gauge BENCH_LOAD tracks as `peak_policy_history`).
    #[must_use]
    pub fn policy_history_len(&self) -> usize {
        self.verifier.authorised_version_count()
    }

    /// Superseded policy versions dropped by the retention horizon.
    #[must_use]
    pub fn policy_history_retired(&self) -> u64 {
        self.policy_history_retired
    }

    /// Turns on windowed decision-group tracking: a group stays in
    /// contract storage for `lag` after the Analyser finished checking
    /// it (covering late duplicates and retransmissions still inside the
    /// PEP retry budget), then its evidence is pruned on-chain via the
    /// contract's `retire_groups`. Off by default — retirement submits
    /// extra transactions, so deployments opt in when running under
    /// sustained load.
    pub fn enable_group_retirement(&mut self, lag: SimTime) {
        self.retire_lag = lag;
    }

    /// Groups checked but still inside the retirement window.
    #[must_use]
    pub fn pending_retirements(&self) -> usize {
        self.pending_retire.len()
    }

    /// Groups whose evidence retirement has been submitted on-chain.
    #[must_use]
    pub fn groups_retired(&self) -> u64 {
        self.groups_retired
    }

    /// Turns on the sibling-block sweep: every poll reads the chain's
    /// fork index for parents with more than one child — the signature of
    /// a hostile history rewrite or an equivocating (Byzantine) miner —
    /// and raises one [`AlertKind::MonitorCompromise`] per fork point. Off by
    /// default so importing historical side chains stays alert-free; the
    /// scenario runtime enables it.
    pub fn enable_fork_detection(&mut self) {
        self.fork_detection = true;
    }

    /// The signing identity (register its fingerprint with the contract).
    #[must_use]
    pub fn keypair(&self) -> &Keypair {
        &self.keypair
    }

    /// Groups fully checked so far.
    #[must_use]
    pub fn checked_groups(&self) -> u64 {
        self.checked_groups
    }

    /// Transaction signatures independently re-verified by the chain
    /// audit (see [`Analyser::poll`]).
    #[must_use]
    pub fn audited_txs(&self) -> u64 {
        self.audited_txs
    }

    /// Updates the authorised policy (legitimate policy administration),
    /// forgetting all previously authorised versions.
    pub fn set_authorised_policy(&mut self, policy: PolicySet) {
        // `set` forgets all history, so the durable form restarts from
        // this policy too — the checkpoint stays O(live versions).
        self.initial_policy = to_source(&policy);
        self.policy_log.clear();
        self.history_dirty = true;
        self.verifier.set_policy(policy);
    }

    /// Authorises a newly published (or rolled-back) policy version
    /// activated at `now`, while keeping earlier versions authorised for
    /// decisions taken before they were superseded — in-flight decisions
    /// during legitimate policy churn do not raise false alerts, but a
    /// PDP stuck on a retired version after `now` does.
    pub fn publish_authorised_policy(&mut self, policy: PolicySet, now: SimTime) {
        self.policy_log
            .push(PolicyLogEntry::Publish(to_source(&policy), now));
        self.history_dirty = true;
        self.verifier.publish_policy(policy, now);
    }

    /// Registers the MAC key of a newly provisioned probe (tenant-join
    /// churn: the key is obtained from the joining tenant's TPM).
    pub fn register_probe_key(&mut self, probe: ProbeId, key: [u8; 32]) {
        self.probe_mac_keys.insert(probe, key.into());
    }

    /// Attaches a durable checkpoint store and immediately writes a
    /// first checkpoint — both records — so a crash at any later point
    /// finds a valid baseline to resume from.
    ///
    /// # Errors
    ///
    /// Propagates snapshot write failures.
    pub fn attach_checkpoint(&mut self, store: SnapshotStore) -> Result<(), StoreError> {
        self.checkpoint_store = Some(store);
        // Whatever this store holds, it does not hold this history.
        self.history_dirty = true;
        self.checkpoint()
    }

    /// Detaches and returns the checkpoint store (crash-recovery hook).
    pub fn detach_checkpoint(&mut self) -> Option<SnapshotStore> {
        self.checkpoint_store.take()
    }

    /// Persists the verification checkpoint if a store is attached (no-op
    /// otherwise). Deployments decide the cadence and the failure
    /// policy: the scenario runtime checkpoints after every poll,
    /// provisioning event and policy publication, and treats a write
    /// failure as fatal there; a library caller may instead retry or
    /// degrade (the only cost of a stale checkpoint is re-checking —
    /// and thus re-reporting — groups completed since it was written).
    ///
    /// # Layout (version 5)
    ///
    /// The checkpoint is two records in the one [`SnapshotStore`]:
    ///
    /// * the **cursor record** — the store's snapshot — holds everything
    ///   a poll moves: event cursor, checked-group and audit counters,
    ///   the audited tip hash, probe MAC keys, the fork-sweep, retirement
    ///   and retention state, and the *generation number* of the history
    ///   record it belongs with. It is a few hundred bytes and is written
    ///   by every call.
    /// * the **policy-history record** — a generation record — holds the
    ///   authorised-policy history as parser source text: the baseline
    ///   policy and the publish log. Its size is that of the policy base
    ///   (hundreds of kilobytes for a thousand policies), and it changes
    ///   only through [`Analyser::set_authorised_policy`],
    ///   [`Analyser::publish_authorised_policy`] and a retention prune
    ///   that cut the log — so it is written only by the first call after
    ///   one of those, under the next generation number.
    ///
    /// Commit order when the history changed: history record (new
    /// generation) → cursor record naming it → removal of the superseded
    /// history record. The cursor write is the commit point: before it,
    /// the old cursor still names the old, still present history; after
    /// it, the new pair is complete. [`Analyser::recover`] reads the
    /// cursor, then exactly the history generation it names.
    ///
    /// # Errors
    ///
    /// Propagates snapshot write failures. After a failure the next call
    /// starts over (a half-done history change is written again), so a
    /// failed checkpoint never needs repair, only a retry.
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        let Some(store) = &mut self.checkpoint_store else {
            return Ok(());
        };
        let generation = self.history_generation + u64::from(self.history_dirty);
        if self.history_dirty {
            // Fits the common case, an empty publish log, in one piece.
            let mut w = Writer::with_capacity(self.initial_policy.len() + 16);
            w.put_u8(CHECKPOINT_VERSION);
            w.put_str(&self.initial_policy);
            w.put_varint(self.policy_log.len() as u64);
            for entry in &self.policy_log {
                let PolicyLogEntry::Publish(text, at) = entry;
                w.put_u8(1);
                w.put_str(text);
                w.put_u64(*at);
            }
            store.save_generation(generation, &w.into_bytes())?;
        }
        // Fixed fields and three length prefixes, then 36 bytes per probe
        // key, 32 per alerted fork parent, 16 per pending retirement.
        let mut w = Writer::with_capacity(
            128 + 36 * self.probe_mac_keys.len()
                + 32 * self.alerted_fork_parents.len()
                + 16 * self.pending_retire.len(),
        );
        w.put_u8(CHECKPOINT_VERSION);
        w.put_u64(self.event_cursor as u64);
        w.put_u64(self.checked_groups);
        w.put_raw(self.audited_tip.as_bytes());
        w.put_u64(self.audited_txs);
        w.put_varint(self.probe_mac_keys.len() as u64);
        for (probe, key) in &self.probe_mac_keys {
            w.put_u32(probe.0);
            w.put_raw(&key.raw);
        }
        w.put_u64(generation);
        w.put_u8(u8::from(self.fork_detection));
        w.put_varint(self.alerted_fork_parents.len() as u64);
        for parent in &self.alerted_fork_parents {
            w.put_raw(parent);
        }
        w.put_u64(self.retire_lag);
        w.put_u64(self.groups_retired);
        w.put_varint(self.pending_retire.len() as u64);
        for (checked_at, corr) in &self.pending_retire {
            w.put_u64(*checked_at);
            w.put_u64(corr.0);
        }
        w.put_u64(self.history_retention);
        w.put_u64(self.policy_history_retired);
        store.save(self.checked_groups, &w.into_bytes())?;
        if self.history_dirty {
            self.history_generation = generation;
            self.history_dirty = false;
            store.prune_generations(generation)?;
        }
        Ok(())
    }

    /// Rebuilds an Analyser from its checkpoint: the cursor record, then
    /// the policy-history generation it names (see
    /// [`Analyser::checkpoint`] for the layout). The policy history is
    /// replayed through the verifier (reconstructing every authorised
    /// version with its supersession time) and the chain cursors resume
    /// where the last checkpoint left them — no re-scan, no re-alerting.
    /// History records other than the named one — what a crash between
    /// the steps of a history-changing checkpoint leaves behind — are
    /// removed, so the recovered Analyser is in one of the two states
    /// that checkpoint was moving between, with a store to match.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] when no checkpoint was ever written, or
    /// the history record the cursor names is missing;
    /// [`StoreError::Corrupt`] when either record fails its length or
    /// checksum check or the history record belongs to another
    /// generation; [`StoreError::Codec`] when a record does not decode —
    /// including any checkpoint version other than 5.
    pub fn recover(
        key: SymmetricKey,
        keypair: Keypair,
        mut store: SnapshotStore,
    ) -> Result<Self, StoreError> {
        let Some((_, bytes)) = store.load()? else {
            return Err(StoreError::NotFound("analyser checkpoint".into()));
        };
        let codec = |e: drams_crypto::CryptoError| StoreError::Codec(e.to_string());
        let expect_version = |version: u8| {
            if version == CHECKPOINT_VERSION {
                Ok(())
            } else {
                Err(StoreError::Codec(format!(
                    "unsupported checkpoint version {version}"
                )))
            }
        };
        let mut r = Reader::new(&bytes);
        expect_version(r.get_u8().map_err(codec)?)?;
        let event_cursor = r.get_u64().map_err(codec)? as usize;
        let checked_groups = r.get_u64().map_err(codec)?;
        let audited_tip = drams_chain::block::BlockHash::from(r.get_array::<32>().map_err(codec)?);
        let audited_txs = r.get_u64().map_err(codec)?;
        let probes = r.get_varint().map_err(codec)?;
        let mut probe_mac_keys = BTreeMap::new();
        for _ in 0..probes {
            let id = ProbeId(r.get_u32().map_err(codec)?);
            probe_mac_keys.insert(id, r.get_array::<32>().map_err(codec)?);
        }
        let history_generation = r.get_u64().map_err(codec)?;
        let fork_detection = r.get_u8().map_err(codec)? != 0;
        let fork_parents = r.get_varint().map_err(codec)?;
        let mut alerted_fork_parents = BTreeSet::new();
        for _ in 0..fork_parents {
            alerted_fork_parents.insert(r.get_array::<32>().map_err(codec)?);
        }
        let retire_lag = r.get_u64().map_err(codec)?;
        let groups_retired = r.get_u64().map_err(codec)?;
        let pending = r.get_varint().map_err(codec)?;
        let mut pending_retire = VecDeque::new();
        for _ in 0..pending {
            let checked_at = r.get_u64().map_err(codec)?;
            let corr = CorrelationId(r.get_u64().map_err(codec)?);
            pending_retire.push_back((checked_at, corr));
        }
        let history_retention = r.get_u64().map_err(codec)?;
        let policy_history_retired = r.get_u64().map_err(codec)?;
        r.finish().map_err(codec)?;

        let history = store.load_generation(history_generation)?;
        let mut r = Reader::new(&history);
        expect_version(r.get_u8().map_err(codec)?)?;
        let parse = |text: &str| {
            parse_policy_set(text)
                .map_err(|e| StoreError::Codec(format!("checkpointed policy: {e}")))
        };
        let initial_policy = r.get_str().map_err(codec)?;
        let mut analyser = Analyser::new(parse(&initial_policy)?, key, keypair, probe_mac_keys);
        let entries = r.get_varint().map_err(codec)?;
        for _ in 0..entries {
            let kind = r.get_u8().map_err(codec)?;
            let text = r.get_str().map_err(codec)?;
            let at = r.get_u64().map_err(codec)?;
            match kind {
                1 => analyser.publish_authorised_policy(parse(&text)?, at),
                other => {
                    return Err(StoreError::Codec(format!(
                        "unknown policy-log entry kind {other}"
                    )))
                }
            }
        }
        r.finish().map_err(codec)?;
        store.prune_generations(history_generation)?;

        analyser.event_cursor = event_cursor;
        analyser.checked_groups = checked_groups;
        analyser.audited_tip = audited_tip;
        analyser.audited_txs = audited_txs;
        analyser.history_generation = history_generation;
        // The replay above rebuilt exactly what the record holds.
        analyser.history_dirty = false;
        analyser.fork_detection = fork_detection;
        analyser.alerted_fork_parents = alerted_fork_parents;
        analyser.retire_lag = retire_lag;
        analyser.groups_retired = groups_retired;
        analyser.pending_retire = pending_retire;
        analyser.history_retention = history_retention;
        analyser.policy_history_retired = policy_history_retired;
        analyser.checkpoint_store = Some(store);
        Ok(analyser)
    }

    /// Consumes new `group.complete` events from `node`, verifies each
    /// completed group and submits findings on-chain. Returns the alerts
    /// raised in this poll (they commit with the next block).
    ///
    /// Also audits every newly committed block: the Analyser re-verifies
    /// all transaction signatures itself, one
    /// [`drams_crypto::schnorr::batch_verify`] pass per block, rather
    /// than trusting the node's import path — the monitoring plane is
    /// part of the paper's threat model, so log non-repudiation is
    /// checked by an independent component. The chain part of a poll
    /// costs what the blocks added since the last poll cost.
    pub fn poll(&mut self, node: &mut Node, now: SimTime) -> Vec<Alert> {
        let mut audit_alerts = self.audit_new_blocks(node, now);
        audit_alerts.extend(self.sweep_forks(node, now));
        let completed: Vec<CorrelationId> = {
            let (events, cursor) = node.events_since(self.event_cursor);
            self.event_cursor = cursor;
            events
                .iter()
                .filter(|e| e.name == GROUP_COMPLETE_EVENT)
                .filter_map(|e| {
                    let mut r = Reader::new(&e.data);
                    r.get_u64().ok().map(CorrelationId)
                })
                .collect()
        };
        let mut alerts = audit_alerts;
        // Judge in completion-event order: that is the order alerts are
        // reported and groups queue for retirement.
        for corr in completed {
            if let Some(entries) = Self::load_group_entries(node, corr) {
                alerts.extend(self.judge_group(corr, &entries, now));
            }
            self.checked_groups += 1;
            if self.retire_lag > 0 {
                self.pending_retire.push_back((now, corr));
            }
        }
        for alert in &alerts {
            // Failures here would mean our own signing identity broke; the
            // alert is still returned locally.
            let _ = node.submit_call(
                &self.keypair,
                MONITOR_CONTRACT,
                "report_violation",
                drams_crypto::codec::Encode::to_canonical_bytes(alert),
            );
        }
        self.retire_due_groups(node, now);
        self.prune_policy_history(now);
        alerts
    }

    /// Drops policy versions (and their durable log prefix) retired
    /// before the retention horizon; see
    /// [`Analyser::enable_history_retention`].
    fn prune_policy_history(&mut self, now: SimTime) {
        if self.history_retention == 0 {
            return;
        }
        // Any decision still able to reach a completed group was taken at
        // or after the oldest unretired epoch minus the retention floor;
        // versions retired before that can no longer be legitimately
        // cited.
        let reference = self.pending_retire.front().map_or(now, |&(t, _)| t);
        let horizon = reference.saturating_sub(self.history_retention);
        let removed = self.verifier.prune_history(horizon);
        self.policy_history_retired += removed as u64;
        // Keep the durable form in step: a log entry activated before the
        // horizon retired its predecessor version before the horizon, so
        // the prefix of such entries collapses into a new baseline policy
        // (activation times are monotone — the prefix is well-defined).
        let cut = self
            .policy_log
            .iter()
            .position(|PolicyLogEntry::Publish(_, at)| *at >= horizon)
            .unwrap_or(self.policy_log.len());
        if cut > 0 {
            let PolicyLogEntry::Publish(text, _) = &self.policy_log[cut - 1];
            self.initial_policy = text.clone();
            self.policy_log.drain(..cut);
            self.history_dirty = true;
        }
    }

    /// Submits one `retire_groups` transaction for every checked group
    /// whose retirement window elapsed (no-op when retirement is off or
    /// nothing is due). The batch is size-capped; the remainder retires
    /// on later polls.
    fn retire_due_groups(&mut self, node: &mut Node, now: SimTime) {
        if self.retire_lag == 0 {
            return;
        }
        let mut due = Vec::new();
        while due.len() < RETIRE_BATCH_MAX {
            match self.pending_retire.front() {
                Some((checked_at, _)) if checked_at.saturating_add(self.retire_lag) <= now => {
                    let (_, corr) = self.pending_retire.pop_front().expect("front exists");
                    due.push(corr);
                }
                _ => break,
            }
        }
        if due.is_empty() {
            return;
        }
        self.groups_retired += due.len() as u64;
        let _ = node.submit_call(
            &self.keypair,
            MONITOR_CONTRACT,
            "retire_groups",
            crate::contract::MonitorContract::retire_groups_payload(&due),
        );
    }

    /// Batch-audits transaction signatures of main-chain blocks not yet
    /// seen, advancing the audit cursor to the tip.
    ///
    /// Walks parent links from the tip down to the last audited block
    /// hash — one hop per new block (O(new blocks), not per-height tip
    /// walks) — so a reorg that abandons the previously audited tip is
    /// re-audited from the fork point rather than silently skipped.
    fn audit_new_blocks(&mut self, node: &Node, now: SimTime) -> Vec<Alert> {
        let chain = node.chain();
        let tip = chain.tip_hash();
        if tip == self.audited_tip {
            return Vec::new();
        }
        let mut pending = Vec::new();
        let mut cursor = tip;
        while cursor != self.audited_tip {
            let Some(block) = chain.block(&cursor) else {
                break;
            };
            pending.push(block);
            if block.header.height == 0 {
                break; // reached genesis: the old audited tip was reorged away
            }
            cursor = block.header.parent;
        }
        // Oldest first, so alerts come out in chain order.
        let mut alerts = Vec::new();
        for block in pending.into_iter().rev() {
            self.audited_txs += block.transactions.len() as u64;
            if let Err(e) = block.verify_signatures() {
                alerts.push(Alert::new(
                    AlertKind::MonitorCompromise,
                    CorrelationId(0),
                    now,
                    format!(
                        "block {} at height {} carries an invalid transaction signature: {e}",
                        block.hash(),
                        block.header.height
                    ),
                ));
            }
        }
        self.audited_tip = tip;
        alerts
    }

    /// The opt-in sibling-block sweep: a private monitoring chain mined by
    /// one honest node is a pure line, so any parent with two or more
    /// children means the history was rewritten under the monitor (a
    /// hostile reorg) or a Byzantine miner equivocated. Each fork point is
    /// reported once; the alerted set persists across polls and restarts.
    /// Reads [`drams_chain::chain::Blockchain::fork_points`], the index
    /// block import maintains, so a poll costs O(forks) — nothing on an
    /// honest chain — however many blocks are stored.
    fn sweep_forks(&mut self, node: &Node, now: SimTime) -> Vec<Alert> {
        if !self.fork_detection {
            return Vec::new();
        }
        let mut alerts = Vec::new();
        for (parent, height, siblings) in node.chain().fork_points() {
            if !self.alerted_fork_parents.insert(*parent.as_bytes()) {
                continue;
            }
            alerts.push(Alert::new(
                AlertKind::MonitorCompromise,
                CorrelationId(0),
                now,
                format!(
                    "chain fork: {siblings} sibling blocks at height {height} share parent {parent}"
                ),
            ));
        }
        alerts
    }

    fn load_entry(node: &Node, corr: CorrelationId, point: ObservationPoint) -> Option<LogEntry> {
        let storage = node.host().storage_of(MONITOR_CONTRACT)?;
        let mut key = Vec::with_capacity(16);
        key.extend_from_slice(b"ent/");
        key.extend_from_slice(&corr.0.to_be_bytes());
        key.push(point.code());
        let bytes = storage.get(&key)?;
        LogEntry::from_canonical_bytes(bytes).ok()
    }

    /// Loads the four observation-point entries of a completed group from
    /// contract storage; `None` when any is missing (group vanished —
    /// cannot happen on an honest chain).
    fn load_group_entries(
        node: &Node,
        corr: CorrelationId,
    ) -> Option<BTreeMap<ObservationPoint, LogEntry>> {
        let mut entries = BTreeMap::new();
        for point in ObservationPoint::ALL {
            entries.insert(point, Self::load_entry(node, corr, point)?);
        }
        Some(entries)
    }

    /// Judges one loaded group: MAC verification, payload decryption, the
    /// formally-grounded re-evaluation and the enforcement cross-check.
    fn judge_group(
        &self,
        corr: CorrelationId,
        entries: &BTreeMap<ObservationPoint, LogEntry>,
        now: SimTime,
    ) -> Vec<Alert> {
        let mut alerts = Vec::new();

        // MAC verification: a compromised LI cannot alter entries without
        // breaking the probe MAC.
        for entry in entries.values() {
            let valid = self
                .probe_mac_keys
                .get(&entry.probe)
                .is_some_and(|k| entry.verify_mac_with(&k.keyed));
            if !valid {
                alerts.push(Alert::new(
                    AlertKind::MonitorCompromise,
                    corr,
                    now,
                    format!("probe mac invalid on {} from {}", entry.point, entry.probe),
                ));
            }
        }

        // Decrypt the PDP-side view: what the PDP decided about what it saw.
        let request_entry = &entries[&ObservationPoint::PdpRequest];
        let response_entry = &entries[&ObservationPoint::PdpResponse];
        let pep_response_entry = &entries[&ObservationPoint::PepResponse];

        let Ok(request_plain) = decrypt_entry_payload(&self.key, request_entry) else {
            alerts.push(Alert::new(
                AlertKind::MonitorCompromise,
                corr,
                now,
                "pdp-request payload does not decrypt".to_string(),
            ));
            return alerts;
        };
        let Ok(response_plain) = decrypt_entry_payload(&self.key, response_entry) else {
            alerts.push(Alert::new(
                AlertKind::MonitorCompromise,
                corr,
                now,
                "pdp-response payload does not decrypt".to_string(),
            ));
            return alerts;
        };
        let Ok(request_env) = RequestEnvelope::from_canonical_bytes(&request_plain) else {
            return alerts;
        };
        let Ok(response_env) = ResponseEnvelope::from_canonical_bytes(&response_plain) else {
            return alerts;
        };

        // The formally-grounded check: re-evaluate and compare, against
        // the version that was authorised *when the decision was taken*.
        match self.verifier.verify_versioned_at(
            &request_env.request,
            &response_env.response,
            response_env.policy_version,
            response_env.decided_at,
        ) {
            Verdict::Consistent => {}
            Verdict::Violation(Violation::WrongPolicyVersion { claimed, expected }) => {
                alerts.push(Alert::new(
                    AlertKind::WrongPolicyVersion,
                    corr,
                    now,
                    format!("pdp used policy {claimed}, authorised is {expected}"),
                ));
            }
            Verdict::Violation(v) => {
                alerts.push(Alert::new(
                    AlertKind::PolicyViolation,
                    corr,
                    now,
                    v.to_string(),
                ));
            }
        }

        // Enforcement cross-check: the PEP-side payload carries what the
        // PEP actually did.
        if let Ok(pep_plain) = decrypt_entry_payload(&self.key, pep_response_entry) {
            if let Some((&granted_byte, env_bytes)) = pep_plain.split_last() {
                if let Ok(enforced_env) = ResponseEnvelope::from_canonical_bytes(env_bytes) {
                    let granted = granted_byte == 1;
                    // Deny-biased reference: only an explicit Permit grants.
                    let should_grant = enforced_env.response.decision == Decision::Permit;
                    if granted != should_grant {
                        alerts.push(Alert::new(
                            AlertKind::EnforcementMismatch,
                            corr,
                            now,
                            format!(
                                "decision {} but access {}",
                                enforced_env.response.decision,
                                if granted { "granted" } else { "refused" }
                            ),
                        ));
                    }
                }
            }
        }

        alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::MonitorContract;
    use crate::probe::Probe;
    use drams_chain::chain::ChainConfig;
    use drams_faas::model::{PepId, TenantId};
    use drams_policy::attr::Request;
    use drams_policy::attr::{AttributeId, Category};
    use drams_policy::combining::CombiningAlg;
    use drams_policy::decision::{Effect, Response};
    use drams_policy::expr::Expr;
    use drams_policy::policy::Policy;
    use drams_policy::rule::Rule;
    use drams_policy::target::Target;

    fn policy() -> PolicySet {
        PolicySet::builder("root", CombiningAlg::DenyUnlessPermit)
            .policy(
                Policy::builder("p", CombiningAlg::PermitOverrides)
                    .rule(
                        Rule::builder("allow-doctors", Effect::Permit)
                            .target(Target::expr(Expr::equal(
                                Expr::attr(AttributeId::new(Category::Subject, "role")),
                                Expr::lit("doctor"),
                            )))
                            .build(),
                    )
                    .build(),
            )
            .build()
    }

    struct Rig {
        node: Node,
        analyser: Analyser,
        pep_probe: Probe,
        pdp_probe: Probe,
        key: SymmetricKey,
    }

    fn rig() -> Rig {
        rig_with(policy())
    }

    fn rig_with(authorised: PolicySet) -> Rig {
        let key = SymmetricKey::from_bytes([3; 32]);
        let analyser_kp = Keypair::from_seed(b"analyser");
        let mut node = Node::new(ChainConfig {
            initial_difficulty_bits: 0,
            retarget_interval: 0,
            ..ChainConfig::default()
        });
        node.register_contract(Box::new(MonitorContract));
        let admin = Keypair::from_seed(b"admin");
        node.submit_call(
            &admin,
            MONITOR_CONTRACT,
            "init",
            MonitorContract::init_payload(1_000_000, analyser_kp.public().fingerprint()),
        )
        .unwrap();
        node.mine_block(0).unwrap();

        let mut mac_keys = BTreeMap::new();
        mac_keys.insert(ProbeId(1), [11u8; 32]);
        mac_keys.insert(ProbeId(2), [22u8; 32]);
        Rig {
            node,
            analyser: Analyser::new(authorised, key.clone(), analyser_kp, mac_keys),
            pep_probe: Probe::new(ProbeId(1), key.clone(), [11; 32]),
            pdp_probe: Probe::new(ProbeId(2), key.clone(), [22; 32]),
            key,
        }
    }

    /// Drives one full transaction through probes and the contract.
    /// `claimed` is the response the PDP reports; `granted` what the PEP
    /// does.
    fn run_group(rig: &mut Rig, corr: u64, role: &str, claimed: Response, granted: bool) {
        let version = policy().version_digest();
        run_group_under(rig, corr, role, claimed, granted, version, 200);
    }

    /// [`run_group`] with the policy version the PDP cites and the time
    /// it says it decided at.
    fn run_group_under(
        rig: &mut Rig,
        corr: u64,
        role: &str,
        claimed: Response,
        granted: bool,
        policy_version: drams_crypto::sha256::Digest,
        decided_at: SimTime,
    ) {
        let req_env = RequestEnvelope {
            correlation: CorrelationId(corr),
            tenant: TenantId(1),
            pep: PepId(1),
            service: "svc".into(),
            request: Request::builder().subject("role", role).build(),
            issued_at: 100,
        };
        let resp_env = ResponseEnvelope {
            correlation: CorrelationId(corr),
            pep: PepId(1),
            response: claimed,
            policy_version,
            decided_at,
        };
        let li = Keypair::from_seed(b"li");
        let entries = vec![
            rig.pep_probe
                .observe_request(ObservationPoint::PepRequest, &req_env, 100),
            rig.pdp_probe
                .observe_request(ObservationPoint::PdpRequest, &req_env, 150),
            rig.pdp_probe.observe_pdp_response(&resp_env, 200),
            rig.pep_probe.observe_pep_response(&resp_env, granted, 250),
        ];
        for e in entries {
            rig.node
                .submit_call(
                    &li,
                    MONITOR_CONTRACT,
                    "store_log",
                    drams_crypto::codec::Encode::to_canonical_bytes(&e),
                )
                .unwrap();
        }
        rig.node.mine_block(1_000).unwrap();
    }

    fn honest_response(role: &str) -> Response {
        let verifier = DecisionVerifier::new(policy());
        verifier.expected_response(&Request::builder().subject("role", role).build())
    }

    #[test]
    fn honest_group_passes() {
        let mut r = rig();
        let resp = honest_response("doctor");
        run_group(&mut r, 1, "doctor", resp, true);
        let alerts = r.analyser.poll(&mut r.node, 2_000);
        assert!(alerts.is_empty(), "alerts: {alerts:?}");
        assert_eq!(r.analyser.checked_groups(), 1);
    }

    #[test]
    fn lying_pdp_is_caught_as_policy_violation() {
        let mut r = rig();
        // Nurse should be denied; the PDP claims Permit and the PEP grants.
        let lie = Response::new(drams_policy::decision::ExtDecision::Permit, vec![]);
        run_group(&mut r, 2, "nurse", lie, true);
        let alerts = r.analyser.poll(&mut r.node, 2_000);
        assert!(
            alerts.iter().any(|a| a.kind == AlertKind::PolicyViolation),
            "alerts: {alerts:?}"
        );
        // The finding is also committed on-chain.
        r.node.mine_block(3_000).unwrap();
        assert!(r
            .node
            .events()
            .iter()
            .any(|e| e.name == AlertKind::PolicyViolation.event_name()));
    }

    #[test]
    fn wrong_policy_version_is_caught() {
        let mut r = rig();
        let resp = honest_response("doctor");
        // Same decision, but evaluated under a swapped policy version.
        let req_env = RequestEnvelope {
            correlation: CorrelationId(3),
            tenant: TenantId(1),
            pep: PepId(1),
            service: "svc".into(),
            request: Request::builder().subject("role", "doctor").build(),
            issued_at: 100,
        };
        let resp_env = ResponseEnvelope {
            correlation: CorrelationId(3),
            pep: PepId(1),
            response: resp,
            policy_version: drams_crypto::sha256::Digest::of(b"attacker-policy"),
            decided_at: 200,
        };
        let li = Keypair::from_seed(b"li");
        let entries = vec![
            r.pep_probe
                .observe_request(ObservationPoint::PepRequest, &req_env, 100),
            r.pdp_probe
                .observe_request(ObservationPoint::PdpRequest, &req_env, 150),
            r.pdp_probe.observe_pdp_response(&resp_env, 200),
            r.pep_probe.observe_pep_response(&resp_env, true, 250),
        ];
        for e in entries {
            r.node
                .submit_call(
                    &li,
                    MONITOR_CONTRACT,
                    "store_log",
                    drams_crypto::codec::Encode::to_canonical_bytes(&e),
                )
                .unwrap();
        }
        r.node.mine_block(1_000).unwrap();
        let alerts = r.analyser.poll(&mut r.node, 2_000);
        assert!(alerts
            .iter()
            .any(|a| a.kind == AlertKind::WrongPolicyVersion));
    }

    #[test]
    fn enforcement_mismatch_is_caught() {
        let mut r = rig();
        // Doctor is permitted, but the PEP refuses anyway.
        let resp = honest_response("doctor");
        run_group(&mut r, 4, "doctor", resp, false);
        let alerts = r.analyser.poll(&mut r.node, 2_000);
        assert!(alerts
            .iter()
            .any(|a| a.kind == AlertKind::EnforcementMismatch));
    }

    #[test]
    fn tampered_entry_mac_is_monitor_compromise() {
        let mut r = rig();
        let resp = honest_response("doctor");
        // Build an honest group, then tamper one entry's observed_at (a
        // compromised LI rewriting history) without fixing the MAC.
        let req_env = RequestEnvelope {
            correlation: CorrelationId(5),
            tenant: TenantId(1),
            pep: PepId(1),
            service: "svc".into(),
            request: Request::builder().subject("role", "doctor").build(),
            issued_at: 100,
        };
        let resp_env = ResponseEnvelope {
            correlation: CorrelationId(5),
            pep: PepId(1),
            response: resp,
            policy_version: policy().version_digest(),
            decided_at: 200,
        };
        let li = Keypair::from_seed(b"li");
        let mut entries = vec![
            r.pep_probe
                .observe_request(ObservationPoint::PepRequest, &req_env, 100),
            r.pdp_probe
                .observe_request(ObservationPoint::PdpRequest, &req_env, 150),
            r.pdp_probe.observe_pdp_response(&resp_env, 200),
            r.pep_probe.observe_pep_response(&resp_env, true, 250),
        ];
        entries[1].observed_at = 999_999; // LI rewrites the timestamp
        for e in entries {
            r.node
                .submit_call(
                    &li,
                    MONITOR_CONTRACT,
                    "store_log",
                    drams_crypto::codec::Encode::to_canonical_bytes(&e),
                )
                .unwrap();
        }
        r.node.mine_block(1_000).unwrap();
        let alerts = r.analyser.poll(&mut r.node, 2_000);
        assert!(alerts
            .iter()
            .any(|a| a.kind == AlertKind::MonitorCompromise));
    }

    #[test]
    fn poll_audits_committed_transaction_signatures() {
        let mut r = rig();
        let resp = honest_response("doctor");
        run_group(&mut r, 10, "doctor", resp, true);
        let alerts = r.analyser.poll(&mut r.node, 2_000);
        assert!(
            alerts.is_empty(),
            "honest chain must audit clean: {alerts:?}"
        );
        // init tx + 4 store_log txs were independently re-verified.
        assert!(
            r.analyser.audited_txs() >= 5,
            "{}",
            r.analyser.audited_txs()
        );
        // Re-polling does not re-audit the same blocks.
        let audited = r.analyser.audited_txs();
        r.analyser.poll(&mut r.node, 2_100);
        assert_eq!(r.analyser.audited_txs(), audited);
    }

    #[test]
    fn audit_survives_a_reorg() {
        use drams_chain::block::Block;
        use drams_chain::chain::ImportOutcome;

        let mut r = rig();
        let resp = honest_response("doctor");
        run_group(&mut r, 11, "doctor", resp, true);
        assert!(r.analyser.poll(&mut r.node, 2_000).is_empty());
        let audited_before = r.analyser.audited_txs();

        // Build a heavier fork from genesis (empty blocks at difficulty
        // 0) that replaces the audited chain entirely.
        let genesis = r.node.chain().genesis_hash();
        let tip_height = r.node.chain().tip_header().height;
        let mut parent = genesis;
        for h in 1..=tip_height + 1 {
            let block = Block::mine(parent, h, vec![], 10_000 + h, 0);
            parent = block.hash();
            let outcome = r.node.receive_block(block).unwrap();
            assert!(!matches!(outcome, ImportOutcome::AlreadyKnown));
        }
        // The audit cursor's old tip is no longer on the main chain; the
        // hash-based walk re-audits from genesis without panicking or
        // raising alerts (the fork's blocks are empty but validly mined).
        let alerts = r.analyser.poll(&mut r.node, 3_000);
        assert!(alerts.is_empty(), "reorg audit alerts: {alerts:?}");
        // Empty fork blocks add no transactions to the audit counter.
        assert_eq!(r.analyser.audited_txs(), audited_before);
        // Subsequent polls resume incrementally from the new tip.
        let tip = r.node.chain().tip_hash();
        r.analyser.poll(&mut r.node, 3_100);
        assert_eq!(r.node.chain().tip_hash(), tip);
    }

    #[test]
    fn fork_sweep_reports_each_parent_once_in_parent_hash_order() {
        use drams_chain::block::Block;

        let mut r = rig();
        r.analyser.enable_fork_detection();
        assert!(r.analyser.poll(&mut r.node, 1_000).is_empty());
        // Two siblings of the height-1 block, and one of the next block.
        let genesis = r.node.chain().genesis_hash();
        let tip = r.node.chain().tip_hash();
        r.node
            .receive_block(Block::mine(genesis, 1, vec![], 5_000, 0))
            .unwrap();
        r.node
            .receive_block(Block::mine(genesis, 1, vec![], 5_001, 0))
            .unwrap();
        r.node
            .receive_block(Block::mine(tip, 2, vec![], 5_002, 0))
            .unwrap();
        r.node
            .receive_block(Block::mine(tip, 2, vec![], 5_003, 0))
            .unwrap();
        let fork = |parent, detail: String| {
            let alert = Alert::new(
                AlertKind::MonitorCompromise,
                CorrelationId(0),
                6_000,
                detail,
            );
            (parent, alert)
        };
        let mut expected = [
            fork(
                genesis,
                format!("chain fork: 3 sibling blocks at height 1 share parent {genesis}"),
            ),
            fork(
                tip,
                format!("chain fork: 2 sibling blocks at height 2 share parent {tip}"),
            ),
        ];
        expected.sort_by_key(|(parent, _)| *parent);
        assert_eq!(
            r.analyser.poll(&mut r.node, 6_000),
            expected.map(|(_, alert)| alert)
        );
        // A later sibling under an already reported parent is not news.
        r.node
            .receive_block(Block::mine(tip, 2, vec![], 5_004, 0))
            .unwrap();
        assert!(r.analyser.poll(&mut r.node, 7_000).is_empty());
    }

    #[test]
    fn poll_is_incremental() {
        let mut r = rig();
        let resp = honest_response("doctor");
        run_group(&mut r, 6, "doctor", resp.clone(), true);
        assert!(r.analyser.poll(&mut r.node, 1_000).is_empty());
        // Re-polling without new groups does nothing.
        assert!(r.analyser.poll(&mut r.node, 1_100).is_empty());
        assert_eq!(r.analyser.checked_groups(), 1);
        run_group(&mut r, 7, "doctor", resp, true);
        r.analyser.poll(&mut r.node, 2_000);
        assert_eq!(r.analyser.checked_groups(), 2);
    }

    #[test]
    fn recovered_analyser_resumes_without_rescanning_or_realerts() {
        use drams_store::{MemBackend, SnapshotStore};

        let mut r = rig();
        r.analyser
            .attach_checkpoint(SnapshotStore::new(Box::new(MemBackend::new())))
            .unwrap();
        // One dirty group (would alert) and one clean one, both polled
        // and therefore checkpointed as already-checked.
        let lie = Response::new(drams_policy::decision::ExtDecision::Permit, vec![]);
        run_group(&mut r, 1, "nurse", lie, true);
        let alerts = r.analyser.poll(&mut r.node, 2_000);
        assert_eq!(alerts.len(), 1);
        run_group(&mut r, 2, "doctor", honest_response("doctor"), true);
        assert!(r.analyser.poll(&mut r.node, 3_000).is_empty());
        let checked = r.analyser.checked_groups();
        let audited = r.analyser.audited_txs();
        // Publish a stricter authorised policy, then crash.
        r.analyser
            .publish_authorised_policy(crate::monitor::default_policy(), 3_500);
        r.analyser.checkpoint().unwrap();
        let store = r.analyser.detach_checkpoint().unwrap();

        let mut recovered =
            Analyser::recover(r.key.clone(), Keypair::from_seed(b"analyser"), store).unwrap();
        assert_eq!(recovered.checked_groups(), checked);
        assert_eq!(recovered.audited_txs(), audited);
        // Polling the same chain re-raises nothing: the dirty group was
        // already checked before the crash.
        assert!(
            recovered.poll(&mut r.node, 4_000).is_empty(),
            "a recovered analyser must not re-alert"
        );
        assert_eq!(recovered.checked_groups(), checked);
        // New groups after recovery are still checked (with the policy
        // history intact: the new authorised version applies).
        run_group(&mut r, 3, "doctor", honest_response("doctor"), true);
        assert!(recovered.poll(&mut r.node, 5_000).is_empty());
        assert_eq!(recovered.checked_groups(), checked + 1);
    }

    #[test]
    fn retirement_prunes_checked_groups_after_the_lag() {
        let mut r = rig();
        r.analyser.enable_group_retirement(5_000);
        run_group(&mut r, 1, "doctor", honest_response("doctor"), true);
        assert!(r.analyser.poll(&mut r.node, 2_000).is_empty());
        assert_eq!(r.analyser.pending_retirements(), 1);
        // Inside the lag: nothing retired yet.
        r.analyser.poll(&mut r.node, 4_000);
        assert_eq!(r.analyser.groups_retired(), 0);
        let storage = r.node.host().storage_of(MONITOR_CONTRACT).unwrap();
        assert_eq!(storage.scan_prefix(b"ent/").count(), 4);
        // Past the lag: the retire tx is submitted and commits with the
        // next block.
        r.analyser.poll(&mut r.node, 8_000);
        assert_eq!(r.analyser.groups_retired(), 1);
        assert_eq!(r.analyser.pending_retirements(), 0);
        r.node.mine_block(9_000).unwrap();
        let storage = r.node.host().storage_of(MONITOR_CONTRACT).unwrap();
        assert_eq!(storage.scan_prefix(b"ent/").count(), 0, "evidence pruned");
        // Retirement itself must not raise alerts.
        assert!(r.analyser.poll(&mut r.node, 10_000).is_empty());
    }

    #[test]
    fn retirement_state_survives_checkpoint_recovery() {
        use drams_store::{MemBackend, SnapshotStore};
        let mut r = rig();
        r.analyser.enable_group_retirement(5_000);
        r.analyser
            .attach_checkpoint(SnapshotStore::new(Box::new(MemBackend::new())))
            .unwrap();
        run_group(&mut r, 1, "doctor", honest_response("doctor"), true);
        assert!(r.analyser.poll(&mut r.node, 2_000).is_empty());
        r.analyser.checkpoint().unwrap();
        let store = r.analyser.detach_checkpoint().unwrap();

        let mut recovered =
            Analyser::recover(r.key.clone(), Keypair::from_seed(b"analyser"), store).unwrap();
        assert_eq!(recovered.pending_retirements(), 1);
        assert_eq!(recovered.groups_retired(), 0);
        // The recovered analyser retires the pending group once due.
        recovered.poll(&mut r.node, 8_000);
        assert_eq!(recovered.groups_retired(), 1);
        r.node.mine_block(9_000).unwrap();
        let storage = r.node.host().storage_of(MONITOR_CONTRACT).unwrap();
        assert_eq!(storage.scan_prefix(b"ent/").count(), 0);
    }

    #[test]
    fn history_retention_prunes_churned_policy_versions() {
        let mut r = rig();
        r.analyser.enable_history_retention(10_000);
        // Churn: three successive, genuinely distinct authorised versions.
        r.analyser
            .publish_authorised_policy(crate::monitor::default_policy(), 1_000);
        r.analyser.publish_authorised_policy(
            PolicySet::builder("root3", CombiningAlg::PermitUnlessDeny).build(),
            2_000,
        );
        assert_eq!(r.analyser.policy_history_len(), 3);
        // Horizon (now - 10s) still before both retirements: all kept.
        r.analyser.poll(&mut r.node, 5_000);
        assert_eq!(r.analyser.policy_history_len(), 3);
        assert_eq!(r.analyser.policy_history_retired(), 0);
        // Past the first retirement (1_000) only.
        r.analyser.poll(&mut r.node, 11_500);
        assert_eq!(r.analyser.policy_history_len(), 2);
        assert_eq!(r.analyser.policy_history_retired(), 1);
        // Far past everything: only the active version survives.
        r.analyser.poll(&mut r.node, 1_000_000);
        assert_eq!(r.analyser.policy_history_len(), 1);
        assert_eq!(r.analyser.policy_history_retired(), 2);
        // Churn keeps working after pruning.
        r.analyser
            .publish_authorised_policy(crate::monitor::default_policy(), 2_000_000);
        assert_eq!(r.analyser.policy_history_len(), 2);
    }

    #[test]
    fn history_retention_holds_back_for_unretired_groups() {
        let mut r = rig();
        r.analyser.enable_history_retention(1_000);
        r.analyser.enable_group_retirement(1_000_000);
        r.analyser
            .publish_authorised_policy(crate::monitor::default_policy(), 1_000);
        // A group checked at t=2_000 stays pending (huge retire lag); it
        // anchors the horizon, so the version retired at t=1_000 must
        // survive far past its own retirement + retention.
        run_group(&mut r, 1, "doctor", honest_response("doctor"), true);
        r.analyser.poll(&mut r.node, 2_000);
        assert_eq!(r.analyser.pending_retirements(), 1);
        r.analyser.poll(&mut r.node, 500_000);
        assert_eq!(r.analyser.policy_history_len(), 2);
        assert_eq!(r.analyser.policy_history_retired(), 0);
    }

    #[test]
    fn pruned_history_survives_checkpoint_recovery() {
        use drams_store::{MemBackend, SnapshotStore};
        let mut r = rig();
        r.analyser.enable_history_retention(10_000);
        r.analyser
            .attach_checkpoint(SnapshotStore::new(Box::new(MemBackend::new())))
            .unwrap();
        r.analyser
            .publish_authorised_policy(crate::monitor::default_policy(), 1_000);
        r.analyser.publish_authorised_policy(
            PolicySet::builder("root3", CombiningAlg::PermitUnlessDeny).build(),
            2_000,
        );
        r.analyser.poll(&mut r.node, 11_500); // prunes the initial version
        assert_eq!(r.analyser.policy_history_len(), 2);
        let retired = r.analyser.policy_history_retired();
        assert_eq!(retired, 1);
        r.analyser.checkpoint().unwrap();
        let store = r.analyser.detach_checkpoint().unwrap();

        let recovered =
            Analyser::recover(r.key.clone(), Keypair::from_seed(b"analyser"), store).unwrap();
        // The pruned baseline replays to the same live history: the
        // dropped version is NOT resurrected, counters match.
        assert_eq!(recovered.policy_history_len(), 2);
        assert_eq!(recovered.policy_history_retired(), retired);
        assert_eq!(
            recovered.verifier.authorised_version(),
            r.analyser.verifier.authorised_version()
        );
    }

    #[test]
    fn one_poll_judges_many_groups_in_completion_order() {
        // Twelve groups with mixed verdicts in one poll: honest, a lying
        // PDP, a PEP that refuses a Permit — repeated four times.
        let mut r = rig();
        let mut expected = Vec::new();
        for corr in 1..=12u64 {
            let (role, resp, granted) = match corr % 3 {
                1 => ("doctor", honest_response("doctor"), true),
                2 => {
                    expected.push((AlertKind::PolicyViolation, CorrelationId(corr)));
                    (
                        "nurse",
                        Response::new(drams_policy::decision::ExtDecision::Permit, vec![]),
                        true,
                    )
                }
                _ => {
                    expected.push((AlertKind::EnforcementMismatch, CorrelationId(corr)));
                    ("doctor", honest_response("doctor"), false)
                }
            };
            run_group(&mut r, corr, role, resp, granted);
        }
        let alerts = r.analyser.poll(&mut r.node, 50_000);
        let got: Vec<_> = alerts
            .iter()
            .map(|a| (a.kind.clone(), a.correlation))
            .collect();
        assert_eq!(got, expected);
        assert_eq!(r.analyser.checked_groups(), 12);
    }

    // ---- the two-record checkpoint (v5) --------------------------------------

    use drams_store::wal::{generation_file_name, SNAPSHOT_FILE};
    use drams_store::{Backend, MemBackend};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// What a [`FaultyBackend`] has stored, seen and been told to break.
    #[derive(Debug, Default)]
    struct Medium {
        files: MemBackend,
        /// `(file, bytes)` of every successful `write_atomic`.
        writes: Writes,
        /// Files changed so far (`write_atomic` and `remove` calls).
        changes: usize,
        /// The change with this index fails and leaves the files alone —
        /// the process died just before it.
        fail_at: Option<usize>,
    }

    impl Medium {
        fn next_change(&mut self) -> Result<(), StoreError> {
            let index = self.changes;
            self.changes += 1;
            if self.fail_at == Some(index) {
                return Err(StoreError::Io(format!(
                    "injected failure at change {index}"
                )));
            }
            Ok(())
        }
    }

    /// A [`MemBackend`] the test keeps a handle on: it counts the bytes of
    /// every write, can fail the *n*-th change, and outlives the
    /// [`SnapshotStore`] (and the Analyser) it was boxed into.
    #[derive(Debug, Clone, Default)]
    struct FaultyBackend(Rc<RefCell<Medium>>);

    impl FaultyBackend {
        fn store(&self) -> SnapshotStore {
            SnapshotStore::new(Box::new(self.clone()))
        }

        /// A fresh medium holding a copy of this one's files.
        fn copy(&self) -> FaultyBackend {
            let copy = FaultyBackend::default();
            copy.0.borrow_mut().files = self.0.borrow().files.clone();
            copy
        }
    }

    impl Backend for FaultyBackend {
        fn list(&self) -> Vec<String> {
            self.0.borrow().files.list()
        }
        fn read(&self, name: &str) -> Result<Vec<u8>, StoreError> {
            self.0.borrow().files.read(name)
        }
        fn len(&self, name: &str) -> Result<Option<u64>, StoreError> {
            self.0.borrow().files.len(name)
        }
        fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
            self.0.borrow_mut().files.append(name, bytes)
        }
        fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
            let mut medium = self.0.borrow_mut();
            medium.next_change()?;
            medium.writes.push((name.to_string(), bytes.len()));
            medium.files.write_atomic(name, bytes)
        }
        fn truncate(&mut self, name: &str, len: u64) -> Result<(), StoreError> {
            self.0.borrow_mut().files.truncate(name, len)
        }
        fn remove(&mut self, name: &str) -> Result<(), StoreError> {
            let mut medium = self.0.borrow_mut();
            medium.next_change()?;
            medium.files.remove(name)
        }
        fn sync(&mut self, name: &str) -> Result<(), StoreError> {
            self.0.borrow_mut().files.sync(name)
        }
    }

    fn recover_from(backend: &FaultyBackend) -> Result<Analyser, StoreError> {
        Analyser::recover(
            SymmetricKey::from_bytes([3; 32]),
            Keypair::from_seed(b"analyser"),
            backend.store(),
        )
    }

    /// `(file, bytes)` per write, in order.
    type Writes = Vec<(String, usize)>;

    /// Attaches a checkpoint, then polls and checkpoints three times with
    /// a new block each time. Returns what the attach wrote and what the
    /// three steady-state checkpoints wrote, plus the files left behind.
    fn checkpoint_writes(authorised: PolicySet) -> (Writes, Writes, Vec<String>) {
        let mut r = rig_with(authorised);
        let backend = FaultyBackend::default();
        r.analyser.attach_checkpoint(backend.store()).unwrap();
        let attach = std::mem::take(&mut backend.0.borrow_mut().writes);
        for t in 1..=3 {
            r.node.mine_block(1_000 * t).unwrap();
            assert!(r.analyser.poll(&mut r.node, 1_000 * t + 500).is_empty());
            r.analyser.checkpoint().unwrap();
        }
        let steady = std::mem::take(&mut backend.0.borrow_mut().writes);
        (attach, steady, backend.list())
    }

    #[test]
    fn steady_state_checkpoint_bytes_do_not_depend_on_policy_size() {
        use drams_faas::workload::{PolicyGenerator, PolicyShape, Vocabulary};
        let heavy = PolicyGenerator::new(Vocabulary::default(), 5).next_policy_set(&PolicyShape {
            policies: 1_000,
            rules_per_policy: 5,
            ..PolicyShape::default()
        });
        let (attach, steady, files) = checkpoint_writes(heavy);
        // Attaching writes the pair: the history record carries the whole
        // policy text, the cursor record does not.
        assert_eq!(attach.len(), 2);
        assert_eq!(attach[0].0, generation_file_name(1));
        assert!(attach[0].1 > 500_000, "history record: {} B", attach[0].1);
        assert_eq!(attach[1].0, SNAPSHOT_FILE);
        // Every later checkpoint writes the cursor record and nothing
        // else, and the history stays at the generation it was written as.
        assert_eq!(steady.len(), 3);
        for (file, bytes) in &steady {
            assert_eq!(file, SNAPSHOT_FILE);
            assert!(*bytes <= 4096, "cursor record: {bytes} B");
        }
        assert_eq!(files, [generation_file_name(1), SNAPSHOT_FILE.to_string()]);
        // Byte for byte what a three-rule policy costs.
        let (small_attach, small_steady, _) = checkpoint_writes(policy());
        assert_eq!(steady, small_steady);
        assert_eq!(attach[1], small_attach[1]);
        assert!(small_attach[0].1 < 4096);
    }

    #[test]
    fn publish_rollback_prune_recover_polls_like_its_unrecovered_twin() {
        let v0 = policy().version_digest();
        let v1 = crate::monitor::default_policy().version_digest();
        // Two identical deployments; `recovered` swaps its Analyser for
        // one rebuilt from the checkpoint half way through.
        let build = || {
            let mut r = rig();
            let backend = FaultyBackend::default();
            r.analyser.enable_history_retention(10_000);
            r.analyser.attach_checkpoint(backend.store()).unwrap();
            r.analyser
                .publish_authorised_policy(crate::monitor::default_policy(), 1_000);
            r.analyser.publish_authorised_policy(policy(), 2_000); // rollback
            r.analyser.checkpoint().unwrap();
            // Horizon 1 500: the log's first entry folds into the baseline.
            assert!(r.analyser.poll(&mut r.node, 11_500).is_empty());
            assert!(r.analyser.history_dirty, "the prune cut the log");
            r.analyser.checkpoint().unwrap();
            (r, backend)
        };
        let (mut twin, twin_backend) = build();
        let (mut recovered, backend) = build();
        recovered.analyser = recover_from(&backend).unwrap();
        assert_eq!(backend.list(), twin_backend.list());

        let v1_response = DecisionVerifier::new(crate::monitor::default_policy())
            .expected_response(&Request::builder().subject("role", "doctor").build());
        let lie = Response::new(drams_policy::decision::ExtDecision::Permit, vec![]);
        let mut polled = Vec::new();
        for r in [&mut twin, &mut recovered] {
            // In flight under v1 while v1 was active; still citing v1
            // after the rollback; lying under the active version.
            run_group_under(r, 1, "doctor", v1_response.clone(), true, v1, 1_800);
            run_group_under(r, 2, "doctor", v1_response.clone(), true, v1, 2_500);
            run_group_under(r, 3, "nurse", lie.clone(), true, v0, 2_600);
            let alerts = r.analyser.poll(&mut r.node, 12_000);
            r.analyser.checkpoint().unwrap();
            polled.push((
                alerts
                    .iter()
                    .map(drams_crypto::codec::Encode::to_canonical_bytes)
                    .collect::<Vec<_>>(),
                r.analyser.checked_groups(),
                r.analyser.policy_history_len(),
                r.analyser.policy_history_retired(),
                r.analyser.verifier.authorised_version(),
            ));
            let kinds: Vec<&AlertKind> = alerts.iter().map(|a| &a.kind).collect();
            assert_eq!(
                kinds,
                [&AlertKind::WrongPolicyVersion, &AlertKind::PolicyViolation]
            );
        }
        assert_eq!(polled[0], polled[1]);
        // Down to the bytes of both records.
        for file in twin_backend.list() {
            assert_eq!(backend.read(&file), twin_backend.read(&file), "{file}");
        }
    }

    #[test]
    fn a_crash_at_any_step_of_a_history_changing_checkpoint_recovers_a_consistent_pair() {
        let old = policy().version_digest();
        let new = crate::monitor::default_policy().version_digest();
        // The three file changes of such a checkpoint, then no crash.
        let steps = [
            (Some(0), "history record not written", old, 1),
            (Some(1), "cursor record not written", old, 1),
            (Some(2), "superseded history record not removed", new, 2),
            (None, "no crash", new, 2),
        ];
        for (crash_at, what, authorised, generation) in steps {
            let mut r = rig();
            let backend = FaultyBackend::default();
            r.analyser.attach_checkpoint(backend.store()).unwrap();
            run_group(&mut r, 1, "doctor", honest_response("doctor"), true);
            assert!(r.analyser.poll(&mut r.node, 2_000).is_empty());
            r.analyser.checkpoint().unwrap();
            r.analyser
                .publish_authorised_policy(crate::monitor::default_policy(), 3_500);
            {
                let mut medium = backend.0.borrow_mut();
                medium.fail_at = crash_at.map(|step| medium.changes + step);
            }
            assert_eq!(
                r.analyser.checkpoint().is_err(),
                crash_at.is_some(),
                "{what}"
            );
            drop(r);
            backend.0.borrow_mut().fail_at = None;

            let mut recovered = recover_from(&backend).expect(what);
            assert_eq!(
                recovered.verifier.authorised_version(),
                authorised,
                "{what}"
            );
            assert_eq!(
                recovered.policy_history_len(),
                generation as usize,
                "{what}"
            );
            assert_eq!(recovered.checked_groups(), 1, "{what}");
            // Recovery leaves exactly the pair it read.
            assert_eq!(
                backend.list(),
                [generation_file_name(generation), SNAPSHOT_FILE.to_string()],
                "{what}"
            );
            // And the recovered Analyser carries on from there.
            recovered.publish_authorised_policy(crate::monitor::default_policy(), 4_000);
            recovered.checkpoint().unwrap();
            assert_eq!(
                backend.list(),
                [
                    generation_file_name(generation + 1),
                    SNAPSHOT_FILE.to_string()
                ],
                "{what}"
            );
            let again = recover_from(&backend).expect(what);
            assert_eq!(again.verifier.authorised_version(), new, "{what}");
        }
    }

    #[test]
    fn damaged_checkpoints_are_typed_errors_not_panics() {
        let mut r = rig();
        let pristine = FaultyBackend::default();
        r.analyser.enable_group_retirement(5_000);
        r.analyser.attach_checkpoint(pristine.store()).unwrap();
        run_group(&mut r, 1, "doctor", honest_response("doctor"), true);
        assert!(r.analyser.poll(&mut r.node, 2_000).is_empty());
        r.analyser
            .publish_authorised_policy(crate::monitor::default_policy(), 2_500);
        r.analyser.checkpoint().unwrap();
        let history_file = generation_file_name(2);
        assert_eq!(
            pristine.list(),
            [history_file.clone(), SNAPSHOT_FILE.to_string()]
        );
        assert!(recover_from(&pristine).is_ok());

        // The history record the cursor names is gone.
        let mut damaged = pristine.copy();
        damaged.remove(&history_file).unwrap();
        let err = recover_from(&damaged).unwrap_err();
        assert!(matches!(err, StoreError::NotFound(_)), "{err:?}");

        // A record of another generation sits under its name.
        let mut damaged = pristine.copy();
        let mut other = damaged.store();
        other.save_generation(7, b"someone else's history").unwrap();
        let misfiled = damaged.read(&generation_file_name(7)).unwrap();
        damaged.write_atomic(&history_file, &misfiled).unwrap();
        let err = recover_from(&damaged).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err:?}");

        // Either file cut short on the medium.
        for file in [&history_file, SNAPSHOT_FILE] {
            let mut damaged = pristine.copy();
            let len = damaged.read(file).unwrap().len() as u64;
            damaged.truncate(file, len - 5).unwrap();
            let err = recover_from(&damaged).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt { .. }), "{file}: {err:?}");
        }

        // Either record cut short *before* it was framed and checksummed:
        // every proper prefix fails to decode.
        let (seq, cursor) = pristine.store().load().unwrap().unwrap();
        for cut in 0..cursor.len() {
            let damaged = pristine.copy();
            damaged.store().save(seq, &cursor[..cut]).unwrap();
            let err = recover_from(&damaged).unwrap_err();
            assert!(
                matches!(err, StoreError::Codec(_)),
                "cursor[..{cut}]: {err:?}"
            );
        }
        let history = pristine.store().load_generation(2).unwrap();
        for cut in 0..history.len() {
            let damaged = pristine.copy();
            damaged.store().save_generation(2, &history[..cut]).unwrap();
            let err = recover_from(&damaged).unwrap_err();
            assert!(
                matches!(err, StoreError::Codec(_)),
                "history[..{cut}]: {err:?}"
            );
        }

        // A checkpoint of the single-record format this one replaced.
        let damaged = pristine.copy();
        let mut v4 = cursor.clone();
        v4[0] = 4;
        damaged.store().save(seq, &v4).unwrap();
        let err = recover_from(&damaged).unwrap_err();
        assert!(
            matches!(&err, StoreError::Codec(m) if m.contains("version 4")),
            "{err:?}"
        );
    }

    #[test]
    fn recover_without_checkpoint_is_not_found() {
        use drams_store::{MemBackend, SnapshotStore, StoreError};
        let err = Analyser::recover(
            SymmetricKey::from_bytes([3; 32]),
            Keypair::from_seed(b"analyser"),
            SnapshotStore::new(Box::new(MemBackend::new())),
        )
        .unwrap_err();
        assert!(matches!(err, StoreError::NotFound(_)));
    }

    #[test]
    fn key_isolation_from_payload() {
        // sanity: rig key decrypts, foreign key does not
        let mut r = rig();
        let env = RequestEnvelope {
            correlation: CorrelationId(8),
            tenant: TenantId(1),
            pep: PepId(1),
            service: "svc".into(),
            request: Request::new(),
            issued_at: 0,
        };
        let entry = r
            .pep_probe
            .observe_request(ObservationPoint::PepRequest, &env, 0);
        assert!(decrypt_entry_payload(&r.key, &entry).is_ok());
        assert!(decrypt_entry_payload(&SymmetricKey::from_bytes([99; 32]), &entry).is_err());
    }
}
