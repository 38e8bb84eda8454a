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
//! ref \[8\]) under the version authorised when the PDP decided, cross-checks
//! the enforced outcome, and records every finding on-chain via
//! `report_violation`. The PDP stamps its own decision time, so the
//! Analyser takes it only inside the round trip the PEP's probe observed.

use crate::alert::{Alert, AlertKind, MISSING_LOG_EVENT};
use crate::contract::{entry_key, GROUP_COMPLETE_EVENT, MONITOR_CONTRACT};
use crate::logent::{LogEntryRef, ObservationPoint, ProbeId};
use drams_chain::contract::Event;
use drams_chain::node::Node;
use drams_crypto::aead::SymmetricKey;
use drams_crypto::codec::{Decode, Encode, Reader, Writer};
use drams_crypto::hmac::HmacKey;
use drams_crypto::schnorr::Keypair;
use drams_crypto::sha256::Digest;
use drams_faas::des::SimTime;
use drams_faas::msg::{CorrelationId, RequestEnvelope, ResponseEnvelope};
use drams_faas::pep::EnforcementBias;
use drams_policy::compiled::PreparedPolicySet;
use drams_policy::policy::PolicySet;
use drams_policy::verify::{DecisionVerifier, Verdict, Violation};
use drams_store::{MemBackend, SnapshotStore, StoreError};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Most correlations in one `retire_groups` transaction: bounds its
/// payload, not the retirement rate — a poll retires every due group in
/// as many transactions as that takes.
const RETIRE_BATCH_MAX: usize = 512;

/// The correlation a `group.complete` event announces; `None` for any
/// other event, or one whose payload does not decode.
fn completed_group(event: &Event) -> Option<CorrelationId> {
    if event.name != GROUP_COMPLETE_EVENT {
        return None;
    }
    Reader::new(&event.data).get_u64().ok().map(CorrelationId)
}

/// The group an `alert.missing_log` event names: one the epoch sweep
/// timed out. `None` for any other event.
fn timed_out_group(event: &Event) -> Option<CorrelationId> {
    if event.name != MISSING_LOG_EVENT {
        return None;
    }
    Alert::missing_log_correlation(&event.data)
}

/// Each event of `events` that closes a group, with its position and the
/// group: a `group.complete`, or the first of the `alert.missing_log`
/// events the epoch sweep raises back to back for a group it times out,
/// one per absent point. The sweep raises them in one transaction, so a
/// slice that starts at a block boundary or at a closure, as both of the
/// Analyser's cursors do, never starts inside such a run.
fn closures(events: &[Event]) -> impl Iterator<Item = (usize, &Event, CorrelationId)> {
    let mut swept = None;
    events.iter().enumerate().filter_map(move |(i, event)| {
        let timed_out = timed_out_group(event);
        let first = timed_out.filter(|corr| swept != Some(*corr));
        swept = timed_out;
        first
            .or_else(|| completed_group(event))
            .map(|corr| (i, event, corr))
    })
}

/// Writes an authorised policy version in the checkpoint's durable form:
/// its version digest, then its canonical encoding — the bytes that
/// digest was computed over, as the compiled version keeps them.
fn write_policy(w: &mut Writer, prepared: &PreparedPolicySet) {
    prepared.version_digest().encode(w);
    w.put_bytes(prepared.canonical_bytes());
}

/// Reads one back and compiles it. The policy is refused unless it
/// compiles to exactly the version that was checkpointed, so a recovered
/// Analyser pins the digests its predecessor pinned or does not start.
fn read_policy(r: &mut Reader<'_>) -> Result<Arc<PreparedPolicySet>, StoreError> {
    let codec =
        |e: drams_crypto::CryptoError| StoreError::Codec(format!("checkpointed policy: {e}"));
    let version = Digest::decode(r).map_err(codec)?;
    let policy = PolicySet::from_canonical_bytes(&r.get_bytes().map_err(codec)?).map_err(codec)?;
    let prepared = PreparedPolicySet::compile(&policy);
    if prepared.version_digest() != version {
        return Err(StoreError::Codec(format!(
            "checkpointed policy is not version {version}"
        )));
    }
    Ok(Arc::new(prepared))
}

/// Version byte of the checkpoint encoding, leading both of its records
/// (layout: [`Analyser::checkpoint`]). [`Analyser::crash_restart`]
/// refuses any other: version 8 did not count the groups the epoch sweep
/// timed out; version 7 also persisted the retirement queue, one
/// entry per unretired group, and a count of pruned policy versions;
/// version 6 the provisioned fork, retirement and retention settings;
/// version 5 held policies as parser source text, which did not
/// round-trip every target to the same digest; earlier versions were
/// one record.
const CHECKPOINT_VERSION: u8 = 9;

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

/// What a PEP-response probe seals: the envelope the PEP enforced, then
/// one byte saying whether it granted access (1) or not.
struct Enforcement {
    envelope: ResponseEnvelope,
    granted: bool,
}

impl Decode for Enforcement {
    fn decode(r: &mut Reader<'_>) -> Result<Self, drams_crypto::CryptoError> {
        let envelope = ResponseEnvelope::decode(r)?;
        let granted = r.get_u8()? == 1;
        Ok(Enforcement { envelope, granted })
    }
}

/// The DRAMS Analyser.
pub struct Analyser {
    verifier: DecisionVerifier,
    key: SymmetricKey,
    keypair: Keypair,
    /// The bias the deployment's PEPs enforce with: the enforcement
    /// cross-check expects exactly the grants it makes. Provisioned
    /// configuration, like the key: not checkpointed, kept across a
    /// [`Analyser::crash_restart`].
    bias: EnforcementBias,
    probe_mac_keys: BTreeMap<ProbeId, ProbeMacKey>,
    event_cursor: usize,
    checked_groups: u64,
    /// Groups the epoch sweep timed out that the event cursor has passed:
    /// with `checked_groups`, every closure a retirement walk names.
    timed_out_groups: u64,
    /// Hash of the last main-chain block whose signatures were audited.
    /// A hash (not a height) so a reorg that swaps in blocks below the
    /// old tip forces a re-audit from the fork point.
    audited_tip: drams_chain::block::BlockHash,
    /// Transaction signatures the audit re-verified. Checkpointed; the
    /// tests read it to see that re-polling and restarting do not
    /// re-audit.
    audited_txs: u64,
    /// Generation of the policy-history record — the verifier's
    /// authorised-policy history as of the last checkpoint that wrote
    /// one (0 = none written yet).
    history_generation: u64,
    /// Whether that history changed since the record was written, i.e.
    /// whether the next checkpoint must write a new one. Set by
    /// construction, [`Analyser::publish_prepared`] and a
    /// retention prune that dropped a version.
    history_dirty: bool,
    /// Parent hashes whose sibling groups were already reported, so a
    /// persisting fork is alerted exactly once across polls (and across
    /// Analyser restarts — the set is checkpointed).
    alerted_fork_parents: BTreeSet<[u8; 32]>,
    /// The durable checkpoint: [`Analyser::checkpoint`] persists cursors
    /// and probe keys every time and the policy history when it changed,
    /// and [`Analyser::crash_restart`] resumes from it without re-scanning
    /// the chain or re-raising alerts.
    checkpoint_store: SnapshotStore,
    /// Windowed decision-group retirement (see
    /// [`Analyser::enable_group_retirement`]). `0` = off. Provisioned,
    /// like `bias`.
    retire_lag: SimTime,
    /// Position in the node's event log of the first closure (a
    /// `group.complete`, or a timed-out group's first `alert.missing_log`)
    /// not yet retired; never past `event_cursor`. The closures between
    /// the two cursors, with their block times, are the retirement
    /// queue: it is read from the chain, not held here.
    retire_cursor: usize,
    /// Correlations whose evidence retirement has been submitted on-chain.
    groups_retired: u64,
    /// Authorised-policy history retention (see
    /// [`Analyser::enable_history_retention`]). `0` = keep forever.
    /// Provisioned, like `bias`.
    history_retention: SimTime,
    /// Decrypted payloads land here, one at a time: a poll reuses one
    /// buffer for every payload it opens.
    plaintext: Vec<u8>,
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
    /// contract's `init`. The Analyser checkpoints to an in-memory store
    /// ([`Analyser::attach_checkpoint`] picks another) and judges
    /// enforcement as deny-biased (`Analyser::set_enforcement_bias`
    /// sets the deployment's bias).
    #[must_use]
    pub fn new(
        authorised_policy: impl std::borrow::Borrow<PolicySet>,
        key: SymmetricKey,
        keypair: Keypair,
        probe_mac_keys: BTreeMap<ProbeId, [u8; 32]>,
    ) -> Self {
        let prepared = Arc::new(PreparedPolicySet::compile(authorised_policy.borrow()));
        Analyser::from_prepared(prepared, key, keypair, probe_mac_keys)
    }

    /// [`Analyser::new`] for an already-compiled authorised policy —
    /// e.g. the PRP's active version when it is the authorised one —
    /// shared with the verifier instead of compiled again (see
    /// [`DecisionVerifier::from_prepared`]).
    #[must_use]
    pub fn from_prepared(
        prepared: Arc<PreparedPolicySet>,
        key: SymmetricKey,
        keypair: Keypair,
        probe_mac_keys: BTreeMap<ProbeId, [u8; 32]>,
    ) -> Self {
        Analyser {
            verifier: DecisionVerifier::from_prepared(prepared),
            key,
            keypair,
            bias: EnforcementBias::DenyBiased,
            probe_mac_keys: probe_mac_keys
                .into_iter()
                .map(|(probe, key)| (probe, key.into()))
                .collect(),
            event_cursor: 0,
            checked_groups: 0,
            timed_out_groups: 0,
            audited_tip: drams_chain::block::BlockHash::ZERO,
            audited_txs: 0,
            history_generation: 0,
            history_dirty: true,
            alerted_fork_parents: BTreeSet::new(),
            checkpoint_store: SnapshotStore::new(Box::new(MemBackend::new())),
            retire_lag: 0,
            retire_cursor: 0,
            groups_retired: 0,
            history_retention: 0,
            plaintext: Vec::new(),
        }
    }

    /// Turns on authorised-policy history retention: after each poll,
    /// versions retired more than `retention` before the block time of
    /// the oldest unretired closure (or `now` when none is) are dropped
    /// from the verifier's history — the last unbounded structure under
    /// sustained policy churn.
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
    pub(crate) fn policy_history_len(&self) -> usize {
        self.verifier.authorised_version_count()
    }

    /// Turns on windowed decision-group tracking: a group stays in
    /// contract storage for `lag` after the block that closed it, by
    /// completing it or by timing it out (covering late duplicates and
    /// retransmissions still inside the PEP retry budget), then, once the
    /// Analyser has passed it, its evidence is pruned on-chain via the
    /// contract's `retire_groups`.
    /// Off by default — retirement submits extra transactions, so
    /// deployments opt in when running under sustained load.
    pub fn enable_group_retirement(&mut self, lag: SimTime) {
        self.retire_lag = lag;
    }

    /// Closures the event cursor has passed, completed or timed out,
    /// whose groups are not yet retired (0 while retirement is off).
    #[must_use]
    pub(crate) fn pending_retirements(&self) -> usize {
        if self.retire_lag == 0 {
            return 0;
        }
        let closed = self.checked_groups + self.timed_out_groups;
        closed.saturating_sub(self.groups_retired) as usize
    }

    /// The node's event-log position below which this Analyser reads no
    /// event again: the retire cursor while retirement is on (the
    /// closures above it are read again when they retire), else the event
    /// cursor. The log may release what lies below it.
    #[must_use]
    pub(crate) fn unread_events(&self) -> usize {
        if self.retire_lag == 0 {
            self.event_cursor
        } else {
            self.retire_cursor
        }
    }

    /// Groups whose evidence retirement has been submitted on-chain.
    #[must_use]
    pub fn groups_retired(&self) -> u64 {
        self.groups_retired
    }

    /// Does nothing: the sibling-block sweep is always on (every poll
    /// raises one [`AlertKind::MonitorCompromise`] per fork point). Kept
    /// because the frozen repo benchmark (`benchmark/`) calls it.
    pub fn enable_fork_detection(&mut self) {}

    /// Sets the bias the deployment's PEPs enforce with, which the
    /// enforcement cross-check applies.
    pub(crate) fn set_enforcement_bias(&mut self, bias: EnforcementBias) {
        self.bias = bias;
    }

    /// Groups fully checked so far.
    #[must_use]
    pub fn checked_groups(&self) -> u64 {
        self.checked_groups
    }

    #[cfg(test)]
    pub(crate) fn verifier(&self) -> &DecisionVerifier {
        &self.verifier
    }

    /// Authorises a newly published (or rolled-back) policy version
    /// activated at `now`, while keeping earlier versions authorised for
    /// decisions taken before they were superseded — in-flight decisions
    /// during legitimate policy churn do not raise false alerts, but a
    /// PDP stuck on a retired version after `now` does. The version is
    /// the one the PRP already compiled, shared rather than recompiled.
    pub(crate) fn publish_prepared(&mut self, prepared: Arc<PreparedPolicySet>, now: SimTime) {
        self.verifier.publish_prepared(prepared, now);
        self.history_dirty = true;
    }

    /// Registers the MAC key of a newly provisioned probe (tenant-join
    /// churn: the key is obtained from the joining tenant's TPM).
    pub(crate) fn register_probe_key(&mut self, probe: ProbeId, key: [u8; 32]) {
        self.probe_mac_keys.insert(probe, key.into());
    }

    /// Replaces the checkpoint store with `store`, on another medium, and
    /// immediately writes a first checkpoint — both records — so a crash
    /// at any later point finds a valid baseline to resume from.
    ///
    /// # Errors
    ///
    /// Propagates snapshot write failures.
    pub fn attach_checkpoint(&mut self, store: SnapshotStore) -> Result<(), StoreError> {
        self.checkpoint_store = store;
        // Whatever this store holds, it does not hold this history.
        self.history_dirty = true;
        self.checkpoint()
    }

    /// Persists the verification checkpoint. Deployments decide the
    /// cadence and the failure policy: the scenario runtime checkpoints
    /// after every poll, provisioning event and policy publication, and
    /// treats a write failure as fatal there; a library caller may
    /// instead retry or degrade (the only cost of a stale checkpoint is
    /// re-checking — and thus re-reporting — groups completed since it
    /// was written).
    ///
    /// # Layout (version 9)
    ///
    /// The checkpoint is two records in the one [`SnapshotStore`]:
    ///
    /// * the **cursor record** — the store's snapshot — holds everything
    ///   a poll moves: event cursor, checked-group and audit counters,
    ///   the audited tip hash, probe MAC keys, the alerted fork parents,
    ///   the timed-out and retired group counts, the retire cursor, and
    ///   the *generation number* of the history record it belongs with.
    ///   Nothing in it is per group: the unretired groups are the chain's
    ///   events between the two cursors. The settings the Analyser was
    ///   provisioned with are not in it either. It is a few hundred bytes, whatever the
    ///   retirement backlog, and is written by every call.
    /// * the **policy-history record** — a generation record — holds the
    ///   verifier's authorised-policy history
    ///   ([`DecisionVerifier::authorised_versions`]), one entry per
    ///   distinct version, each as its version digest and its canonical
    ///   encoding — the exact bytes that digest was computed over, as
    ///   [`PreparedPolicySet::canonical_bytes`] keeps them, never a fresh
    ///   encoding. The first entry is a baseline and every later one a
    ///   publish at the instant its predecessor retired, so replaying it
    ///   rebuilds the history exactly. Its size is that of the distinct
    ///   versions (≈ 300 KB for a thousand policies of five rules),
    ///   however often they were published or rolled back to, and it
    ///   changes only when a policy version is published and through
    ///   a retention prune that dropped a version — so it is written only
    ///   by the first call after one of those, under the next generation
    ///   number.
    ///
    /// Commit order when the history changed: history record (new
    /// generation) → cursor record naming it → removal of the superseded
    /// history record. The cursor write is the commit point: before it,
    /// the old cursor still names the old, still present history; after
    /// it, the new pair is complete. `Analyser::crash_restart` reads the
    /// cursor, then exactly the history generation it names.
    ///
    /// # Errors
    ///
    /// Propagates snapshot write failures. After a failure the next call
    /// starts over (a half-done history change is written again), so a
    /// failed checkpoint never needs repair, only a retry.
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        let store = &mut self.checkpoint_store;
        let generation = self.history_generation + u64::from(self.history_dirty);
        if self.history_dirty {
            let versions = self.verifier.authorised_versions();
            // A version byte, then per entry at most a kind byte, its
            // digest, a length prefix, its canonical bytes and a varint
            // count or an activation instant.
            let mut w = Writer::with_capacity(
                1 + versions
                    .iter()
                    .map(|(_, prepared, _)| 51 + prepared.canonical_bytes().len())
                    .sum::<usize>(),
            );
            w.put_u8(CHECKPOINT_VERSION);
            // The oldest version is the baseline; each later one is a
            // publish at the instant its predecessor retired.
            let mut activated_at = None;
            for &(_, prepared, retired_at) in &versions {
                match activated_at {
                    None => {
                        write_policy(&mut w, prepared);
                        w.put_varint(versions.len() as u64 - 1);
                    }
                    Some(at) => {
                        w.put_u8(1);
                        write_policy(&mut w, prepared);
                        w.put_u64(at);
                    }
                }
                activated_at = retired_at;
            }
            store.save_generation(generation, &w.into_bytes())?;
        }
        // Fixed fields and two length prefixes, then 36 bytes per probe
        // key and 32 per alerted fork parent.
        let mut w = Writer::with_capacity(
            128 + 36 * self.probe_mac_keys.len() + 32 * self.alerted_fork_parents.len(),
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
        w.put_varint(self.alerted_fork_parents.len() as u64);
        for parent in &self.alerted_fork_parents {
            w.put_raw(parent);
        }
        w.put_u64(self.timed_out_groups);
        w.put_u64(self.groups_retired);
        w.put_u64(self.retire_cursor as u64);
        store.save(self.checked_groups, &w.into_bytes())?;
        if self.history_dirty {
            self.history_generation = generation;
            self.history_dirty = false;
            store.prune_generations(generation)?;
        }
        Ok(())
    }

    /// Restarts the Analyser process in place: everything it holds in
    /// memory is lost, and it resumes from its own checkpoint store with
    /// the key, keypair, enforcement bias, retirement lag and history
    /// retention it was provisioned with. It
    /// reads the cursor record, then the policy-history generation that
    /// record names (see [`Analyser::checkpoint`] for the layout). The
    /// policy history is replayed through the verifier (reconstructing
    /// every authorised version with its supersession time; a record
    /// that names a version more than once, one entry per publish,
    /// replays to the same history) and the chain cursors resume where
    /// the last checkpoint left them — no re-scan, no re-alerting.
    /// History records other than the named one — what a crash between
    /// the steps of a history-changing checkpoint leaves behind — are
    /// removed, so the restarted Analyser is in one of the two states
    /// that checkpoint was moving between, with a store to match. On an
    /// error the Analyser is left as it was.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] when no checkpoint was ever written, or
    /// the history record the cursor names is missing;
    /// [`StoreError::Corrupt`] when either record fails its length or
    /// checksum check or the history record belongs to another
    /// generation; [`StoreError::Codec`] when a record does not decode —
    /// including any checkpoint version other than 9 and a retire cursor
    /// past the event cursor — or a checkpointed policy does not compile
    /// to the version digest recorded beside it.
    pub(crate) fn crash_restart(&mut self) -> Result<(), StoreError> {
        let store = &mut self.checkpoint_store;
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
        let fork_parents = r.get_varint().map_err(codec)?;
        let mut alerted_fork_parents = BTreeSet::new();
        for _ in 0..fork_parents {
            alerted_fork_parents.insert(r.get_array::<32>().map_err(codec)?);
        }
        let timed_out_groups = r.get_u64().map_err(codec)?;
        let groups_retired = r.get_u64().map_err(codec)?;
        let retire_cursor = r.get_u64().map_err(codec)? as usize;
        r.finish().map_err(codec)?;
        if retire_cursor > event_cursor {
            return Err(StoreError::Codec(format!(
                "retire cursor {retire_cursor} is past event cursor {event_cursor}"
            )));
        }

        let history = store.load_generation(history_generation)?;
        let mut r = Reader::new(&history);
        expect_version(r.get_u8().map_err(codec)?)?;
        let prepared = read_policy(&mut r)?;
        let mut analyser = Analyser::from_prepared(
            prepared,
            self.key.clone(),
            self.keypair.clone(),
            probe_mac_keys,
        );
        let entries = r.get_varint().map_err(codec)?;
        for _ in 0..entries {
            let kind = r.get_u8().map_err(codec)?;
            if kind != 1 {
                return Err(StoreError::Codec(format!(
                    "unknown policy-history entry kind {kind}"
                )));
            }
            let prepared = read_policy(&mut r)?;
            let at = r.get_u64().map_err(codec)?;
            analyser.publish_prepared(prepared, at);
        }
        r.finish().map_err(codec)?;
        store.prune_generations(history_generation)?;

        analyser.event_cursor = event_cursor;
        analyser.checked_groups = checked_groups;
        analyser.timed_out_groups = timed_out_groups;
        analyser.audited_tip = audited_tip;
        analyser.audited_txs = audited_txs;
        analyser.history_generation = history_generation;
        // The replay above rebuilt exactly what the record holds.
        analyser.history_dirty = false;
        analyser.alerted_fork_parents = alerted_fork_parents;
        analyser.groups_retired = groups_retired;
        analyser.retire_cursor = retire_cursor;
        analyser.bias = self.bias;
        analyser.retire_lag = self.retire_lag;
        analyser.history_retention = self.history_retention;
        std::mem::swap(&mut analyser.checkpoint_store, &mut self.checkpoint_store);
        *self = analyser;
        Ok(())
    }

    /// Consumes new `group.complete` events from `node`, verifies each
    /// completed group and submits findings on-chain. Returns the alerts
    /// raised in this poll (they commit with the next block).
    ///
    /// Also audits every newly committed block: the Analyser re-verifies
    /// all transaction signatures itself, one
    /// [`drams_chain::block::Block::verify_signatures`] pass per block
    /// (one transaction at a time, sharing each frequent signer's
    /// fixed-base table), rather than trusting the node's import path — the monitoring plane is
    /// part of the paper's threat model, so log non-repudiation is
    /// checked by an independent component. The chain part of a poll
    /// costs what the blocks added since the last poll cost.
    pub fn poll(&mut self, node: &mut Node, now: SimTime) -> Vec<Alert> {
        let mut audit_alerts = self.audit_new_blocks(node, now);
        audit_alerts.extend(self.sweep_forks(node, now));
        let mut completed = Vec::new();
        let (events, cursor) = node.events_since(self.event_cursor);
        self.event_cursor = cursor;
        for (_, event, corr) in closures(events) {
            if event.name == GROUP_COMPLETE_EVENT {
                completed.push(corr);
            } else {
                self.timed_out_groups += 1;
            }
        }
        let mut alerts = audit_alerts;
        // Judge in completion-event order: that is the order alerts are
        // reported and groups retire.
        for corr in completed {
            if let Some(entries) = Self::load_group_entries(node, corr) {
                alerts.extend(self.judge_group(corr, &entries, now));
            }
            self.checked_groups += 1;
        }
        for alert in &alerts {
            // Failures here would mean our own signing identity broke; the
            // alert is still returned locally.
            let _ = node.submit_call(
                &self.keypair,
                MONITOR_CONTRACT,
                "report_violation",
                alert.to_canonical_bytes(),
            );
        }
        let unretired = self.retire_due_groups(node, now);
        self.prune_policy_history(unretired.unwrap_or(now));
        alerts
    }

    /// Drops policy versions retired more than the retention before
    /// `reference`, the block time of the oldest unretired closure or
    /// the poll instant; see [`Analyser::enable_history_retention`].
    fn prune_policy_history(&mut self, reference: SimTime) {
        if self.history_retention == 0 {
            return;
        }
        // Any decision still able to reach a completed group was taken at
        // or after the oldest unretired closure (no later than the oldest
        // unretired completion) minus the retention floor; versions
        // retired before that can no longer be legitimately cited.
        let horizon = reference.saturating_sub(self.history_retention);
        self.history_dirty |= self.verifier.prune_history(horizon) > 0;
    }

    /// Walks the passed events from the retire cursor, oldest first, and
    /// retires the group of every closure ([`closures`]) whose block is
    /// at least the lag old, in as many `retire_groups` transactions of
    /// at most [`RETIRE_BATCH_MAX`] correlations as that takes. It stops
    /// at the first closure not yet due, so a poll leaves no due group
    /// for later polls. Returns that closure's block time: `None` when
    /// retirement is off or every passed closure is retired.
    fn retire_due_groups(&mut self, node: &mut Node, now: SimTime) -> Option<SimTime> {
        if self.retire_lag == 0 {
            return None;
        }
        let (events, _) = node.events_since(self.retire_cursor);
        let passed = &events[..(self.event_cursor - self.retire_cursor).min(events.len())];
        let mut walked = passed.len();
        let mut due = Vec::new();
        let mut unretired = None;
        for (i, event, corr) in closures(passed) {
            // `timestamp_ms` is the block's time: the scenario mines
            // each block at its virtual instant.
            if event.timestamp_ms.saturating_add(self.retire_lag) > now {
                unretired = Some(event.timestamp_ms);
                walked = i;
                break;
            }
            due.push(corr);
        }
        self.retire_cursor += walked;
        self.groups_retired += due.len() as u64;
        for batch in due.chunks(RETIRE_BATCH_MAX) {
            let _ = node.submit_call(
                &self.keypair,
                MONITOR_CONTRACT,
                "retire_groups",
                crate::contract::MonitorContract::retire_groups_payload(batch),
            );
        }
        unretired
    }

    /// Batch-audits transaction signatures of main-chain blocks not yet
    /// seen, advancing the audit cursor to the tip.
    ///
    /// Audits the main-chain blocks above the fork point of the tip and
    /// the audited tip: the new blocks when the chain only grew (O(new
    /// blocks)), and after a reorg that abandoned the audited tip the
    /// blocks of the new branch, never those below the fork point, which
    /// were audited already. An audited tip the chain does not hold (the
    /// initial `ZERO`) has no fork point, so the whole chain is audited.
    fn audit_new_blocks(&mut self, node: &Node, now: SimTime) -> Vec<Alert> {
        let chain = node.chain();
        let tip = chain.tip_hash();
        let fork = chain.fork_point(&tip, &self.audited_tip);
        let pending: Vec<_> = chain
            .ancestors(&tip)
            .take_while(|(hash, _)| Some(*hash) != fork)
            .collect();
        // Oldest first, so alerts come out in chain order.
        let mut alerts = Vec::new();
        for (hash, block) in pending.into_iter().rev() {
            self.audited_txs += block.transactions.len() as u64;
            if let Err(e) = block.verify_signatures() {
                alerts.push(Alert::new(
                    AlertKind::MonitorCompromise,
                    CorrelationId(0),
                    now,
                    format!(
                        "block {hash} at height {} carries an invalid transaction signature: {e}",
                        block.header.height
                    ),
                ));
            }
        }
        self.audited_tip = tip;
        alerts
    }

    /// The sibling-block sweep: a private monitoring chain mined by
    /// one honest node is a pure line, so any parent with two or more
    /// children means the history was rewritten under the monitor (a
    /// hostile reorg) or a Byzantine miner equivocated. Each fork point is
    /// reported once; the alerted set persists across polls and restarts.
    /// Reads [`drams_chain::chain::Blockchain::fork_points`], the index
    /// block import maintains, so a poll costs O(forks) — nothing on an
    /// honest chain — however many blocks are stored.
    fn sweep_forks(&mut self, node: &Node, now: SimTime) -> Vec<Alert> {
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

    /// Reads the four observations of a completed group from contract
    /// storage, in [`ObservationPoint::ALL`] order, as views borrowing
    /// their ciphertexts from it; `None` when any is missing or does not
    /// decode (the group vanished — cannot happen on an honest chain).
    fn load_group_entries(node: &Node, corr: CorrelationId) -> Option<[LogEntryRef<'_>; 4]> {
        let storage = node.host().storage_of(MONITOR_CONTRACT)?;
        let load = |point| LogEntryRef::from_bytes(storage.get(&entry_key(corr, point))?).ok();
        Some([
            load(ObservationPoint::PepRequest)?,
            load(ObservationPoint::PdpRequest)?,
            load(ObservationPoint::PdpResponse)?,
            load(ObservationPoint::PepResponse)?,
        ])
    }

    /// Judges one loaded group: MAC verification, payload decryption, the
    /// decision time against the PEP's round trip, the formally-grounded
    /// re-evaluation and the enforcement cross-check.
    /// A payload that does not decrypt or decode is itself a finding: the
    /// probes seal well-formed envelopes, so anything else was forged or
    /// damaged after them.
    fn judge_group(
        &mut self,
        corr: CorrelationId,
        entries: &[LogEntryRef<'_>; 4],
        now: SimTime,
    ) -> Vec<Alert> {
        let mut alerts = Vec::new();
        let compromise =
            |detail: String| Alert::new(AlertKind::MonitorCompromise, corr, now, detail);

        // MAC verification: a compromised LI cannot alter entries without
        // breaking the probe MAC.
        for entry in entries {
            let valid = self
                .probe_mac_keys
                .get(&entry.probe)
                .is_some_and(|k| entry.verify_mac_with(&k.keyed));
            if !valid {
                alerts.push(compromise(format!(
                    "probe mac invalid on {} from {}",
                    entry.point, entry.probe
                )));
            }
        }

        // Decrypt the PDP-side view: what the PDP decided about what it saw.
        let [pep_request_entry, request_entry, response_entry, pep_response_entry] = entries;
        let Some(request_env) =
            self.open_payload::<RequestEnvelope>(request_entry, &mut alerts, compromise)
        else {
            return alerts;
        };
        let Some(response_env) =
            self.open_payload::<ResponseEnvelope>(response_entry, &mut alerts, compromise)
        else {
            return alerts;
        };

        // The formally-grounded check: re-evaluate and compare, against
        // the version that was authorised *when the decision was taken*.
        // The PDP stamps that instant itself, so it counts only inside
        // the round trip the PEP's probe saw: a PDP that stamps a retired
        // version's retirement instant could serve that version forever.
        let (sent, received) = (
            pep_request_entry.observed_at,
            pep_response_entry.observed_at,
        );
        let decided_at = response_env.decided_at;
        let finding = if !(sent..=received).contains(&decided_at) {
            Some((
                AlertKind::WrongPolicyVersion,
                format!(
                    "pdp stamped its decision at {decided_at}, outside the pep's round trip {sent}..={received}"
                ),
            ))
        } else {
            match self.verifier.verify_versioned_at(
                &request_env.request,
                &response_env.response,
                response_env.policy_version,
                decided_at,
            ) {
                Verdict::Consistent => None,
                Verdict::Violation(Violation::WrongPolicyVersion { claimed, expected }) => Some((
                    AlertKind::WrongPolicyVersion,
                    format!("pdp used policy {claimed}, authorised is {expected}"),
                )),
                Verdict::Violation(v) => Some((AlertKind::PolicyViolation, v.to_string())),
            }
        };
        if let Some((kind, detail)) = finding {
            alerts.push(Alert::new(kind, corr, now, detail));
        }

        // Enforcement cross-check: the PEP-side payload carries what the
        // PEP actually did.
        let Some(Enforcement { envelope, granted }) =
            self.open_payload(pep_response_entry, &mut alerts, compromise)
        else {
            return alerts;
        };
        if granted != self.bias.grants(envelope.response.decision) {
            alerts.push(Alert::new(
                AlertKind::EnforcementMismatch,
                corr,
                now,
                format!(
                    "decision {} but access {}",
                    envelope.response.decision,
                    if granted { "granted" } else { "refused" }
                ),
            ));
        }
        alerts
    }

    /// Decrypts and decodes the envelope an entry's probe sealed; raises
    /// a [`AlertKind::MonitorCompromise`] naming the point and returns
    /// `None` when either step fails.
    fn open_payload<T: Decode>(
        &mut self,
        entry: &LogEntryRef<'_>,
        alerts: &mut Vec<Alert>,
        compromise: impl Fn(String) -> Alert,
    ) -> Option<T> {
        let point = entry.point;
        if entry
            .open_payload_into(&self.key, &mut self.plaintext)
            .is_err()
        {
            alerts.push(compromise(format!("{point} payload does not decrypt")));
            return None;
        }
        let decoded = T::from_canonical_bytes(&self.plaintext).ok();
        if decoded.is_none() {
            alerts.push(compromise(format!("{point} payload does not decode")));
        }
        decoded
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

    fn publish(analyser: &mut Analyser, policy: impl std::borrow::Borrow<PolicySet>, now: SimTime) {
        analyser.publish_prepared(Arc::new(PreparedPolicySet::compile(policy.borrow())), now);
    }

    fn rig() -> Rig {
        rig_with(policy())
    }

    fn rig_with(authorised: PolicySet) -> Rig {
        rig_on(authorised, true)
    }

    /// A rig whose node checks transaction signatures at import only
    /// when `verify_signatures` is set.
    fn rig_on(authorised: PolicySet, verify_signatures: bool) -> Rig {
        let key = SymmetricKey::from_bytes([3; 32]);
        let analyser_kp = Keypair::from_seed(b"analyser");
        let mut node = Node::new(ChainConfig {
            initial_difficulty_bits: 0,
            retarget_interval: 0,
            verify_signatures,
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
        let entries = observe_group(
            rig,
            corr,
            role,
            claimed,
            granted,
            policy_version,
            decided_at,
        );
        submit_group(rig, entries);
    }

    /// Logs a group's entries one transaction each and mines them at
    /// 1 000.
    fn submit_group(rig: &mut Rig, entries: [crate::logent::LogEntry; 4]) {
        let li = Keypair::from_seed(b"li");
        for e in entries {
            rig.node
                .submit_call(
                    &li,
                    MONITOR_CONTRACT,
                    "store_log_batch",
                    crate::contract::encode_batch(&[e]),
                )
                .unwrap();
        }
        rig.node.mine_block(1_000).unwrap();
    }

    /// The four observations the probes make of one transaction, around
    /// the instant the PDP decided at: the PEP's of its request 100
    /// before it, the PDP's 50 before it and at it, the PEP's of the
    /// response 50 after it.
    fn observe_group(
        rig: &mut Rig,
        corr: u64,
        role: &str,
        claimed: Response,
        granted: bool,
        policy_version: drams_crypto::sha256::Digest,
        decided_at: SimTime,
    ) -> [crate::logent::LogEntry; 4] {
        let sent = decided_at - 100;
        let req_env = RequestEnvelope {
            correlation: CorrelationId(corr),
            tenant: TenantId(1),
            pep: PepId(1),
            service: "svc".into(),
            request: Request::builder().subject("role", role).build(),
            issued_at: sent,
        };
        let resp_env = ResponseEnvelope {
            correlation: CorrelationId(corr),
            pep: PepId(1),
            response: claimed,
            policy_version,
            decided_at,
        };
        [
            rig.pep_probe
                .observe_request(ObservationPoint::PepRequest, &req_env, sent),
            rig.pdp_probe
                .observe_request(ObservationPoint::PdpRequest, &req_env, sent + 50),
            rig.pdp_probe.observe_pdp_response(&resp_env, sent + 100),
            rig.pep_probe
                .observe_pep_response(&resp_env, granted, sent + 150),
        ]
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
        // v1 (the rig's policy) permits doctors; v2 denies everyone and
        // retires v1 at 50. The probes see a doctor's round trip from 100
        // to 250, and the PDP answers as v1 does, citing either a version
        // nobody authorised, or v1 stamped at 50, its retirement instant:
        // an in-flight decision, if the Analyser took the PDP's word for
        // when it decided.
        let v2 = PolicySet::builder("v2", CombiningAlg::DenyOverrides)
            .policy(
                Policy::builder("p", CombiningAlg::DenyOverrides)
                    .rule(Rule::always("deny-all", Effect::Deny))
                    .build(),
            )
            .build();
        let cases = [
            (
                drams_crypto::sha256::Digest::of(b"attacker-policy"),
                200,
                "pdp used policy ",
            ),
            (
                policy().version_digest(),
                50,
                "pdp stamped its decision at 50, outside the pep's round trip 100..=250",
            ),
        ];
        for (policy_version, decided_at, detail) in cases {
            let mut r = rig();
            publish(&mut r.analyser, &v2, 50);
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
                response: honest_response("doctor"),
                policy_version,
                decided_at,
            };
            let entries = [
                r.pep_probe
                    .observe_request(ObservationPoint::PepRequest, &req_env, 100),
                r.pdp_probe
                    .observe_request(ObservationPoint::PdpRequest, &req_env, 150),
                r.pdp_probe.observe_pdp_response(&resp_env, 200),
                r.pep_probe.observe_pep_response(&resp_env, true, 250),
            ];
            submit_group(&mut r, entries);
            let alerts = r.analyser.poll(&mut r.node, 2_000);
            assert_eq!(alerts.len(), 1, "{alerts:?}");
            assert_eq!(alerts[0].kind, AlertKind::WrongPolicyVersion);
            assert!(alerts[0].detail.starts_with(detail), "{alerts:?}");
        }
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
                    "store_log_batch",
                    crate::contract::encode_batch(&[e]),
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
        // init tx + 4 one-entry store_log_batch txs were independently re-verified.
        assert!(r.analyser.audited_txs >= 5, "{}", r.analyser.audited_txs);
        // Re-polling does not re-audit the same blocks.
        let audited = r.analyser.audited_txs;
        r.analyser.poll(&mut r.node, 2_100);
        assert_eq!(r.analyser.audited_txs, audited);
    }

    #[test]
    fn audit_survives_a_reorg() {
        use drams_chain::block::Block;
        use drams_chain::chain::ImportOutcome;

        let mut r = rig();
        let resp = honest_response("doctor");
        run_group(&mut r, 11, "doctor", resp, true);
        assert!(r.analyser.poll(&mut r.node, 2_000).is_empty());
        let audited_before = r.analyser.audited_txs;

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
        // fork point is genesis, so the audit covers the whole new branch
        // without panicking or raising audit alerts (the fork's blocks are
        // empty but validly mined). The sweep reports the fork at genesis,
        // once.
        let alerts = r.analyser.poll(&mut r.node, 3_000);
        assert_eq!(alerts.len(), 1, "reorg alerts: {alerts:?}");
        assert_eq!(alerts[0].kind, AlertKind::MonitorCompromise);
        assert!(alerts[0].detail.starts_with("chain fork"), "{alerts:?}");
        // Empty fork blocks add no transactions to the audit counter.
        assert_eq!(r.analyser.audited_txs, audited_before);
        // Subsequent polls resume incrementally from the new tip, and the
        // reported fork is not news.
        let tip = r.node.chain().tip_hash();
        assert!(r.analyser.poll(&mut r.node, 3_100).is_empty());
        assert_eq!(r.node.chain().tip_hash(), tip);
    }

    #[test]
    fn a_reorg_audits_only_the_blocks_above_its_fork_point() {
        use drams_chain::block::Block;
        use drams_chain::tx::Transaction;

        // The node skips import-time signature checks (the Byzantine
        // premise), so a block carrying a forged signature lands at
        // height 2, under three honest blocks.
        let mut r = rig_on(policy(), false);
        let forger = Keypair::from_seed(b"forger");
        let mut body = Transaction::new_signed(&forger, 0, "bogus", "noop", vec![]).into_body();
        body.payload = b"forged".as_slice().into();
        let forged = Block::mine(
            r.node.chain().tip_hash(),
            2,
            vec![Transaction::from_body(body)],
            1_000,
            0,
        );
        r.node.receive_block(forged).unwrap();
        for ts in 1_001..=1_003 {
            r.node.mine_block(ts).unwrap();
        }
        let is_forgery = |a: &Alert| a.detail.contains("invalid transaction signature");
        let alerts = r.analyser.poll(&mut r.node, 2_000);
        assert_eq!(alerts.iter().filter(|a| is_forgery(a)).count(), 1);
        let audited = r.analyser.audited_txs;
        assert_eq!(audited, 2, "the init call and the forgery");

        // A heavier empty branch from height 3 replaces heights 4 and 5.
        let chain = r.node.chain();
        let (mut parent, _) = chain.ancestors(&chain.tip_hash()).nth(2).unwrap();
        for height in 4..=6 {
            let block = Block::mine(parent, height, vec![], 5_000 + height, 0);
            parent = block.hash();
            r.node.receive_block(block).unwrap();
        }
        assert_eq!(r.node.chain().tip_hash(), parent);
        // Only the new branch is audited: the forgery below the fork point
        // is not raised again, and the empty branch adds no transaction.
        let alerts = r.analyser.poll(&mut r.node, 6_000);
        assert!(!alerts.iter().any(is_forgery), "{alerts:?}");
        assert_eq!(alerts.len(), 1, "the fork above height 3: {alerts:?}");
        assert_eq!(r.analyser.audited_txs, audited);
    }

    #[test]
    fn fork_sweep_reports_each_parent_once_in_parent_hash_order() {
        use drams_chain::block::Block;

        let mut r = rig();
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
        let mut r = rig();
        r.analyser.checkpoint().unwrap();
        // One dirty group (would alert) and one clean one, both polled
        // and therefore checkpointed as already-checked.
        let lie = Response::new(drams_policy::decision::ExtDecision::Permit, vec![]);
        run_group(&mut r, 1, "nurse", lie, true);
        let alerts = r.analyser.poll(&mut r.node, 2_000);
        assert_eq!(alerts.len(), 1);
        run_group(&mut r, 2, "doctor", honest_response("doctor"), true);
        assert!(r.analyser.poll(&mut r.node, 3_000).is_empty());
        let checked = r.analyser.checked_groups();
        let audited = r.analyser.audited_txs;
        // Publish a stricter authorised policy, then crash.
        publish(&mut r.analyser, crate::monitor::default_policy(), 3_500);
        r.analyser.checkpoint().unwrap();
        r.analyser.crash_restart().unwrap();
        assert_eq!(r.analyser.checked_groups(), checked);
        assert_eq!(r.analyser.audited_txs, audited);
        // Polling the same chain re-raises nothing: the dirty group was
        // already checked before the crash.
        assert!(
            r.analyser.poll(&mut r.node, 4_000).is_empty(),
            "a recovered analyser must not re-alert"
        );
        assert_eq!(r.analyser.checked_groups(), checked);
        // New groups after recovery are still checked (with the policy
        // history intact: the new authorised version applies).
        run_group(&mut r, 3, "doctor", honest_response("doctor"), true);
        assert!(r.analyser.poll(&mut r.node, 5_000).is_empty());
        assert_eq!(r.analyser.checked_groups(), checked + 1);
    }

    /// Six polls, each after one dirty group (a lying PDP) has completed,
    /// checkpointing after each; `crash_after(i)` says whether the
    /// Analyser crash-restarts after poll `i` (0 = before the first).
    fn six_poll_run(crash_after: impl Fn(u64) -> bool) -> Vec<Alert> {
        let mut r = rig();
        r.analyser.checkpoint().unwrap();
        let lie = Response::new(drams_policy::decision::ExtDecision::Permit, vec![]);
        let mut alerts = Vec::new();
        for poll in 0..=6 {
            if poll > 0 {
                run_group(&mut r, poll, "nurse", lie.clone(), true);
                alerts.extend(r.analyser.poll(&mut r.node, 1_000 * poll + 500));
                r.analyser.checkpoint().unwrap();
            }
            if crash_after(poll) {
                r.analyser.crash_restart().unwrap();
            }
        }
        r.node.mine_block(10_000).unwrap();
        assert!(r.analyser.poll(&mut r.node, 10_500).is_empty());
        assert_eq!(r.analyser.checked_groups(), 6);
        alerts
    }

    #[test]
    fn a_crash_at_any_poll_boundary_raises_the_same_alerts_in_order() {
        let uncrashed = six_poll_run(|_| false);
        assert_eq!(uncrashed.len(), 6);
        for k in 0..=6 {
            assert_eq!(
                six_poll_run(|poll| poll == k),
                uncrashed,
                "crash after poll {k}"
            );
        }
    }

    /// Eight polls, each after a block of three groups (one of them a
    /// lying PDP's) and each followed by a checkpoint, with a crash-restart
    /// after the fourth; groups retire two polls after they complete when
    /// `retire` is set. With `release`, the node releases the events the
    /// Analyser has passed after each checkpoint, as the scenario does.
    /// Returns the alerts raised, the `retire_groups` payloads the chain
    /// carries and the number of events the node holds at the end.
    fn release_run(retire: bool, release: bool) -> (Vec<Alert>, Vec<Vec<u8>>, usize) {
        let mut r = rig();
        if retire {
            r.analyser.enable_group_retirement(2_000);
        }
        let li = Keypair::from_seed(b"li");
        let version = policy().version_digest();
        let lie = Response::new(drams_policy::decision::ExtDecision::Permit, vec![]);
        let mut alerts = Vec::new();
        for poll in 1..=8 {
            let mut entries = Vec::new();
            for corr in 3 * poll..3 * poll + 3 {
                let group = if corr % 3 == 1 {
                    observe_group(&mut r, corr, "nurse", lie.clone(), true, version, 200)
                } else {
                    let honest = honest_response("doctor");
                    observe_group(&mut r, corr, "doctor", honest, true, version, 200)
                };
                entries.extend(group);
            }
            let batch = crate::contract::encode_batch(&entries);
            r.node
                .submit_call(&li, MONITOR_CONTRACT, "store_log_batch", batch)
                .unwrap();
            r.node.mine_block(1_000 * poll).unwrap();
            alerts.extend(r.analyser.poll(&mut r.node, 1_000 * poll + 500));
            r.analyser.checkpoint().unwrap();
            if release {
                r.node.release_events(r.analyser.unread_events());
            }
            if poll == 4 {
                r.analyser.crash_restart().unwrap();
            }
        }
        r.node.mine_block(10_000).unwrap();
        let chain = r.node.chain();
        let mut retired = Vec::new();
        for (_, block) in chain.ancestors(&chain.tip_hash()) {
            for tx in block.transactions.iter().rev() {
                if tx.method == "retire_groups" {
                    retired.push(tx.payload.to_vec());
                }
            }
        }
        retired.reverse();
        (alerts, retired, r.node.events().len())
    }

    #[test]
    fn releasing_the_events_the_analyser_has_passed_changes_no_finding() {
        for retire in [false, true] {
            let (alerts, retired, held) = release_run(retire, false);
            let (released_alerts, released_retired, released_held) = release_run(retire, true);
            assert_eq!(alerts.len(), 8, "one policy violation per poll");
            assert_eq!(retired.is_empty(), !retire);
            assert_eq!(released_alerts, alerts, "retirement {retire}");
            assert_eq!(released_retired, retired, "retirement {retire}");
            assert!(
                released_held < held,
                "retirement {retire}: {released_held} of {held} events held"
            );
        }
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
        let mut r = rig();
        r.analyser.enable_group_retirement(5_000);
        run_group(&mut r, 1, "doctor", honest_response("doctor"), true);
        assert!(r.analyser.poll(&mut r.node, 2_000).is_empty());
        r.analyser.checkpoint().unwrap();
        r.analyser.crash_restart().unwrap();
        assert_eq!(r.analyser.pending_retirements(), 1);
        assert_eq!(r.analyser.groups_retired(), 0);
        // The recovered analyser retires the pending group once due.
        r.analyser.poll(&mut r.node, 8_000);
        assert_eq!(r.analyser.groups_retired(), 1);
        r.node.mine_block(9_000).unwrap();
        let storage = r.node.host().storage_of(MONITOR_CONTRACT).unwrap();
        assert_eq!(storage.scan_prefix(b"ent/").count(), 0);
    }

    /// More completions per poll than one `retire_groups` transaction
    /// holds, for four times the lag: once the lag has passed, every poll
    /// retires what completed a lag earlier, so the unretired backlog and
    /// the cursor record stop growing.
    #[test]
    fn retirement_keeps_up_with_more_than_one_batch_per_poll() {
        const PER_POLL: u64 = RETIRE_BATCH_MAX as u64 + 88;
        let mut r = rig();
        let backend = FaultyBackend::default();
        r.analyser.enable_group_retirement(2_000);
        r.analyser.attach_checkpoint(backend.store()).unwrap();
        let (resp, version) = (honest_response("doctor"), policy().version_digest());
        let li = Keypair::from_seed(b"li");
        let (mut pending, mut cursor_record) = (Vec::new(), Vec::new());
        for poll in 1..=8 {
            let mut entries = Vec::new();
            for corr in (poll - 1) * PER_POLL + 1..=poll * PER_POLL {
                let group = observe_group(&mut r, corr, "doctor", resp.clone(), true, version, 200);
                entries.extend(group);
            }
            let batch = crate::contract::encode_batch(&entries);
            r.node
                .submit_call(&li, MONITOR_CONTRACT, "store_log_batch", batch)
                .unwrap();
            // Blocks are 1_000 apart and each poll comes 500 after its
            // block: the groups two blocks back are due, the last two not.
            r.node.mine_block(1_000 * poll).unwrap();
            assert!(r.analyser.poll(&mut r.node, 1_000 * poll + 500).is_empty());
            r.analyser.checkpoint().unwrap();
            pending.push(r.analyser.pending_retirements());
            cursor_record.push(backend.read(SNAPSHOT_FILE).unwrap().len());
        }
        // Polls 4 and 8.
        assert_eq!(pending[7], pending[3], "unretired groups: {pending:?}");
        assert_eq!(cursor_record[7], cursor_record[3], "{cursor_record:?}");
        assert_eq!(pending[3], 2 * PER_POLL as usize);
        assert_eq!(r.analyser.checked_groups(), 8 * PER_POLL);
        assert_eq!(r.analyser.groups_retired(), 6 * PER_POLL);
        // The last poll's retirements commit with the next block.
        r.node.mine_block(9_000).unwrap();
        let storage = r.node.host().storage_of(MONITOR_CONTRACT).unwrap();
        let evidence = storage.scan_prefix(b"ent/").count();
        assert_eq!(evidence, 4 * pending[7]);
    }

    #[test]
    fn history_retention_prunes_churned_policy_versions() {
        let mut r = rig();
        r.analyser.enable_history_retention(10_000);
        // Churn: three successive, genuinely distinct authorised versions.
        publish(&mut r.analyser, crate::monitor::default_policy(), 1_000);
        publish(
            &mut r.analyser,
            PolicySet::builder("root3", CombiningAlg::PermitUnlessDeny).build(),
            2_000,
        );
        assert_eq!(r.analyser.policy_history_len(), 3);
        // Horizon (now - 10s) still before both retirements: all kept.
        r.analyser.poll(&mut r.node, 5_000);
        assert_eq!(r.analyser.policy_history_len(), 3);
        // Past the first retirement (1_000) only.
        r.analyser.poll(&mut r.node, 11_500);
        assert_eq!(r.analyser.policy_history_len(), 2);
        // Far past everything: only the active version survives.
        r.analyser.poll(&mut r.node, 1_000_000);
        assert_eq!(r.analyser.policy_history_len(), 1);
        // Churn keeps working after pruning.
        publish(&mut r.analyser, crate::monitor::default_policy(), 2_000_000);
        assert_eq!(r.analyser.policy_history_len(), 2);
    }

    #[test]
    fn history_retention_holds_back_for_unretired_groups() {
        let mut r = rig();
        r.analyser.enable_history_retention(1_000);
        r.analyser.enable_group_retirement(1_000_000);
        publish(&mut r.analyser, crate::monitor::default_policy(), 1_000);
        // A group completed at t=1_000 stays pending (huge retire lag);
        // it anchors the horizon, so the version retired at t=1_000 must
        // survive far past its own retirement + retention.
        run_group(&mut r, 1, "doctor", honest_response("doctor"), true);
        r.analyser.poll(&mut r.node, 2_000);
        assert_eq!(r.analyser.pending_retirements(), 1);
        r.analyser.poll(&mut r.node, 500_000);
        assert_eq!(r.analyser.policy_history_len(), 2);
    }

    #[test]
    fn pruned_history_survives_checkpoint_recovery() {
        let mut r = rig();
        r.analyser.enable_history_retention(10_000);
        publish(&mut r.analyser, crate::monitor::default_policy(), 1_000);
        publish(
            &mut r.analyser,
            PolicySet::builder("root3", CombiningAlg::PermitUnlessDeny).build(),
            2_000,
        );
        r.analyser.poll(&mut r.node, 11_500); // prunes the initial version
        assert_eq!(r.analyser.policy_history_len(), 2);
        r.analyser.checkpoint().unwrap();
        let version = r.analyser.verifier.authorised_version();
        r.analyser.crash_restart().unwrap();
        // The pruned baseline replays to the same live history: the
        // dropped version is NOT resurrected.
        assert_eq!(r.analyser.policy_history_len(), 2);
        assert_eq!(r.analyser.verifier.authorised_version(), version);
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

    /// A fresh Analyser with the rig's key and keypair whose checkpoint
    /// store is `backend`, crash-restarted from what that store holds.
    fn recover_from(backend: &FaultyBackend) -> Result<Analyser, StoreError> {
        let mut analyser = Analyser::new(
            policy(),
            SymmetricKey::from_bytes([3; 32]),
            Keypair::from_seed(b"analyser"),
            BTreeMap::new(),
        );
        analyser.checkpoint_store = backend.store();
        analyser.crash_restart()?;
        Ok(analyser)
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
        let canonical = heavy.to_canonical_bytes().len();
        let (attach, steady, files) = checkpoint_writes(heavy);
        // Attaching writes the pair: the history record carries the whole
        // policy, the cursor record does not. The history record is the
        // canonical encoding plus fixed framing: the 24-byte snapshot
        // header, the version byte, the version digest, the encoding's
        // length prefix and the empty publish log's count.
        assert_eq!(attach.len(), 2);
        assert_eq!(attach[0].0, generation_file_name(1));
        let mut prefix = Writer::new();
        prefix.put_varint(canonical as u64);
        assert_eq!(attach[0].1, 24 + 1 + 32 + prefix.len() + canonical + 1);
        assert!(attach[0].1 < 300_000, "history record: {} B", attach[0].1);
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

    /// The retirement lag and the history retention are provisioned, as
    /// the bias is: the checkpoint holds neither, and a crash restart
    /// keeps what the Analyser was provisioned with.
    #[test]
    fn provisioned_settings_are_not_checkpointed() {
        let checkpointed = |provisioned: bool| {
            let mut r = rig();
            if provisioned {
                r.analyser.enable_group_retirement(5_000);
                r.analyser.enable_history_retention(10_000);
            }
            let backend = FaultyBackend::default();
            r.analyser.attach_checkpoint(backend.store()).unwrap();
            r.analyser.crash_restart().unwrap();
            let settings = (r.analyser.retire_lag, r.analyser.history_retention);
            let files: Vec<_> = backend
                .list()
                .into_iter()
                .map(|f| (backend.read(&f).unwrap(), f))
                .collect();
            (files, settings)
        };
        let (provisioned, settings) = checkpointed(true);
        let (bare, bare_settings) = checkpointed(false);
        assert_eq!(provisioned, bare, "both records, byte for byte");
        assert_eq!(settings, (5_000, 10_000));
        assert_eq!(bare_settings, (0, 0));
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
            publish(&mut r.analyser, crate::monitor::default_policy(), 1_000);
            publish(&mut r.analyser, policy(), 2_000); // rollback
            r.analyser.checkpoint().unwrap();
            // Horizon 1 500: v1 retired at 2 000 and the active v0 stay.
            assert!(r.analyser.poll(&mut r.node, 11_500).is_empty());
            assert!(
                !r.analyser.history_dirty,
                "the verifier pruned nothing, so nothing is rewritten"
            );
            r.analyser.checkpoint().unwrap();
            (r, backend)
        };
        let (mut twin, twin_backend) = build();
        let (mut recovered, backend) = build();
        recovered.analyser = recover_from(&backend).unwrap();
        // Retention is provisioned, not checkpointed: the recovering
        // deployment provisions it again.
        recovered.analyser.enable_history_retention(10_000);
        assert_eq!(backend.list(), twin_backend.list());
        // Each entry of the history record holds the published version's
        // kept bytes, which hash to the digest recorded beside them...
        let published = [crate::monitor::default_policy(), policy()]
            .map(|p| PreparedPolicySet::compile(&p).canonical_bytes().to_vec());
        let entries = record_entries(&history_record(&backend, &recovered.analyser));
        assert_eq!(entries.len(), 2);
        for ((digest, bytes), (version, kept)) in
            entries.iter().zip([v1, v0].iter().zip(&published))
        {
            assert_eq!(digest, version);
            assert_eq!(bytes, kept);
            assert_eq!(Digest::of(bytes), *digest);
        }
        // ...and the recovered Analyser pins the digests its twin pins.
        assert_eq!(
            versions_of(&recovered.analyser),
            versions_of(&twin.analyser)
        );

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
            publish(&mut r.analyser, crate::monitor::default_policy(), 3_500);
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
            publish(&mut recovered, crate::monitor::default_policy(), 4_000);
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
        publish(&mut r.analyser, crate::monitor::default_policy(), 2_500);
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

        // A retire cursor past the event cursor: the last field.
        let damaged = pristine.copy();
        let mut ahead = cursor.clone();
        let end = ahead.len();
        ahead[end - 8..].fill(0xFF);
        damaged.store().save(seq, &ahead).unwrap();
        let err = recover_from(&damaged).unwrap_err();
        assert!(
            matches!(&err, StoreError::Codec(m) if m.contains("retire cursor")),
            "{err:?}"
        );

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
    fn recovered_analyser_pins_the_same_version_for_clause_targets() {
        // Targets a one-expression-per-clause rendering cannot reproduce:
        // a conjunction inside one AllOf, two AnyOfs, an empty AllOf.
        let role = |value: &str| {
            Expr::equal(
                Expr::attr(AttributeId::new(Category::Subject, "role")),
                Expr::lit(value),
            )
        };
        let targets = [
            Target::all(vec![role("doctor"), Expr::not(role("nurse"))]),
            Target::Clauses(vec![
                vec![vec![role("doctor")]],
                vec![vec![Expr::not(role("nurse"))]],
            ]),
            Target::Clauses(vec![vec![vec![]]]),
        ];
        for target in targets {
            let published = PolicySet::builder("clauses", CombiningAlg::DenyUnlessPermit)
                .policy(
                    Policy::builder("p", CombiningAlg::PermitOverrides)
                        .target(target.clone())
                        .rule(Rule::always("allow", Effect::Permit))
                        .build(),
                )
                .build();
            let version = published.version_digest();
            let response = DecisionVerifier::new(published.clone())
                .expected_response(&Request::builder().subject("role", "doctor").build());
            let build = || {
                let mut r = rig();
                let backend = FaultyBackend::default();
                r.analyser.attach_checkpoint(backend.store()).unwrap();
                publish(&mut r.analyser, published.clone(), 1_000);
                r.analyser.checkpoint().unwrap();
                (r, backend)
            };
            let (mut twin, _) = build();
            let (mut recovered, backend) = build();
            recovered.analyser = recover_from(&backend).unwrap();
            let mut polled = Vec::new();
            for r in [&mut twin, &mut recovered] {
                run_group_under(r, 1, "doctor", response.clone(), true, version, 2_000);
                let alerts = r.analyser.poll(&mut r.node, 3_000);
                polled.push((
                    r.analyser.verifier.authorised_version(),
                    alerts
                        .iter()
                        .map(drams_crypto::codec::Encode::to_canonical_bytes)
                        .collect::<Vec<_>>(),
                ));
            }
            assert_eq!(polled[0], (version, Vec::new()), "{target:?}");
            assert_eq!(polled[1], polled[0], "{target:?}");
        }
    }

    #[test]
    fn a_version_5_history_record_is_refused() {
        let mut r = rig();
        let pristine = FaultyBackend::default();
        r.analyser.attach_checkpoint(pristine.store()).unwrap();
        // The v5 layout under the generation the cursor names: version
        // byte, the baseline as parser source text, an empty publish log.
        let mut v5 = Writer::new();
        v5.put_u8(5);
        v5.put_str("policyset root { deny-unless-permit\n}\n");
        v5.put_varint(0);
        let damaged = pristine.copy();
        damaged
            .store()
            .save_generation(1, &v5.into_bytes())
            .unwrap();
        let err = recover_from(&damaged).unwrap_err();
        assert!(
            matches!(&err, StoreError::Codec(m) if m.contains("version 5")),
            "{err:?}"
        );
    }

    #[test]
    fn flipped_or_truncated_policy_payloads_are_typed_errors() {
        let mut r = rig();
        let pristine = FaultyBackend::default();
        r.analyser.attach_checkpoint(pristine.store()).unwrap();
        publish(&mut r.analyser, crate::monitor::default_policy(), 1_000);
        r.analyser.checkpoint().unwrap();
        // The history record rebuilt around a damaged policy payload and
        // framed validly, so decoding and the digest check are all that
        // stand between it and a recovered Analyser.
        let baseline = (policy().version_digest(), policy().to_canonical_bytes());
        let default = crate::monitor::default_policy();
        let published = (default.version_digest(), default.to_canonical_bytes());
        let record = |policies: [&(Digest, Vec<u8>); 2]| {
            let mut w = Writer::new();
            w.put_u8(CHECKPOINT_VERSION);
            for (i, (version, canonical)) in policies.into_iter().enumerate() {
                if i == 1 {
                    w.put_varint(1);
                    w.put_u8(1);
                }
                version.encode(&mut w);
                w.put_bytes(canonical);
            }
            w.put_u64(1_000);
            w.into_bytes()
        };
        let history = pristine.store().load_generation(2).unwrap();
        assert_eq!(
            record([&baseline, &published]),
            history,
            "the layout damaged"
        );
        let recover_with = |bytes: Vec<u8>| {
            let damaged = pristine.copy();
            damaged.store().save_generation(2, &bytes).unwrap();
            recover_from(&damaged)
        };
        for which in 0..2 {
            let (version, canonical) = [&baseline, &published][which];
            let mut damaged = Vec::new();
            for i in 0..canonical.len() {
                for mask in [0x01, 0x80] {
                    let mut flipped = canonical.clone();
                    flipped[i] ^= mask;
                    damaged.push((format!("byte {i} ^ {mask:#x}"), *version, flipped));
                }
                damaged.push((format!("cut at {i}"), *version, canonical[..i].to_vec()));
            }
            let mut wrong = *version;
            wrong.0[0] ^= 0x01;
            damaged.push(("digest flipped".into(), wrong, canonical.clone()));
            for (what, version, bytes) in damaged {
                let policy = (version, bytes);
                let pair = if which == 0 {
                    [&policy, &published]
                } else {
                    [&baseline, &policy]
                };
                let err = recover_with(record(pair)).unwrap_err();
                assert!(
                    matches!(err, StoreError::Codec(_)),
                    "policy {which}, {what}: {err:?}"
                );
            }
        }
    }

    // ---- the history record is the verifier's history --------------------

    /// The verifier's authorised-policy history, owned: each version's
    /// digest, canonical bytes and retirement.
    fn versions_of(analyser: &Analyser) -> Vec<(Digest, Vec<u8>, Option<u64>)> {
        analyser
            .verifier
            .authorised_versions()
            .into_iter()
            .map(|(version, prepared, retired_at)| {
                (version, prepared.canonical_bytes().to_vec(), retired_at)
            })
            .collect()
    }

    /// The history record the Analyser's last history-changing checkpoint
    /// wrote.
    fn history_record(backend: &FaultyBackend, analyser: &Analyser) -> Vec<u8> {
        backend
            .store()
            .load_generation(analyser.history_generation)
            .unwrap()
    }

    /// The `(version digest, policy bytes)` entries a history record
    /// lists, in order.
    fn record_entries(record: &[u8]) -> Vec<(Digest, Vec<u8>)> {
        let mut r = Reader::new(record);
        assert_eq!(r.get_u8().unwrap(), CHECKPOINT_VERSION);
        let entry = |r: &mut Reader<'_>| (Digest::decode(r).unwrap(), r.get_bytes().unwrap());
        let mut entries = vec![entry(&mut r)];
        for _ in 0..r.get_varint().unwrap() {
            assert_eq!(r.get_u8().unwrap(), 1);
            entries.push(entry(&mut r));
            r.get_u64().unwrap();
        }
        r.finish().unwrap();
        entries
    }

    /// The version digests a history record lists, in order.
    fn record_versions(record: &[u8]) -> Vec<Digest> {
        record_entries(record).into_iter().map(|(d, _)| d).collect()
    }

    /// A policy whose target is two clauses in one AllOf.
    fn clause_policy() -> PolicySet {
        let role = |value: &str| {
            Expr::equal(
                Expr::attr(AttributeId::new(Category::Subject, "role")),
                Expr::lit(value),
            )
        };
        PolicySet::builder("clauses", CombiningAlg::DenyUnlessPermit)
            .policy(
                Policy::builder("p", CombiningAlg::PermitOverrides)
                    .target(Target::all(vec![role("doctor"), Expr::not(role("nurse"))]))
                    .rule(Rule::always("allow", Effect::Permit))
                    .build(),
            )
            .build()
    }

    #[test]
    fn random_churn_checkpoints_and_recovers_exactly_the_verifiers_history() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let policies = [policy(), crate::monitor::default_policy(), clause_policy()];
        let mut rng = StdRng::seed_from_u64(26);
        // Recoveries, and checkpoints that followed a prune.
        let (mut recoveries, mut pruned_checkpoints) = (0, 0);
        for case in 0..200 {
            let mut r = rig();
            let backend = FaultyBackend::default();
            if rng.gen_bool(0.75) {
                r.analyser
                    .enable_history_retention(rng.gen_range(1..=1_000));
            }
            r.analyser.attach_checkpoint(backend.store()).unwrap();
            let mut checkpointed = versions_of(&r.analyser);
            let (mut now, mut active, mut previous) = (0, 0, 0);
            let mut pruned = false;
            for step in 0..rng.gen_range(1..=24) {
                let what = format!("case {case} step {step}");
                now += rng.gen_range(0..=2_000u64);
                match rng.gen_range(0..10) {
                    // Publish any of the three, or roll back to the
                    // version active before this one.
                    op @ 0..=3 => {
                        let next = if op < 3 {
                            rng.gen_range(0..3)
                        } else {
                            previous
                        };
                        publish(&mut r.analyser, policies[next].clone(), now);
                        (previous, active) = (active, next);
                    }
                    // A poll prunes when retention is on.
                    4 | 5 => {
                        let held = r.analyser.policy_history_len();
                        assert!(r.analyser.poll(&mut r.node, now).is_empty());
                        pruned |= r.analyser.policy_history_len() < held;
                    }
                    6 | 7 => {
                        r.analyser.checkpoint().unwrap();
                        pruned_checkpoints += u32::from(std::mem::take(&mut pruned));
                        checkpointed = versions_of(&r.analyser);
                        // The record lists each held version once.
                        let listed = record_versions(&history_record(&backend, &r.analyser));
                        let held: Vec<Digest> = checkpointed.iter().map(|v| v.0).collect();
                        assert_eq!(listed, held, "{what}");
                    }
                    // Crash: recover from the last checkpoint.
                    _ => {
                        (recoveries, pruned) = (recoveries + 1, false);
                        let files: Vec<_> = backend
                            .list()
                            .into_iter()
                            .map(|f| (backend.read(&f).unwrap(), f))
                            .collect();
                        let record = history_record(&backend, &r.analyser);
                        r.analyser.crash_restart().unwrap();
                        assert_eq!(versions_of(&r.analyser), checkpointed, "{what}");
                        active = policies
                            .iter()
                            .position(|p| {
                                p.version_digest() == r.analyser.verifier.authorised_version()
                            })
                            .unwrap();
                        // A checkpoint right after recovery rewrites
                        // both records byte for byte...
                        r.analyser.checkpoint().unwrap();
                        let again: Vec<_> = backend
                            .list()
                            .into_iter()
                            .map(|f| (backend.read(&f).unwrap(), f))
                            .collect();
                        assert_eq!(again, files, "{what}");
                        // ...and one forced to write the history writes
                        // the record the crashed Analyser wrote.
                        r.analyser.history_dirty = true;
                        r.analyser.checkpoint().unwrap();
                        assert_eq!(history_record(&backend, &r.analyser), record, "{what}");
                    }
                }
            }
        }
        assert!(
            recoveries > 300 && pruned_checkpoints > 30,
            "{recoveries} / {pruned_checkpoints}"
        );
    }

    #[test]
    fn rolling_back_and_forth_checkpoints_each_version_once() {
        use drams_faas::workload::{PolicyGenerator, PolicyShape, Vocabulary};
        let heavy = PolicyGenerator::new(Vocabulary::default(), 5).next_policy_set(&PolicyShape {
            policies: 1_000,
            rules_per_policy: 5,
            ..PolicyShape::default()
        });
        let heavy = Arc::new(PreparedPolicySet::compile(&heavy));
        let small = Arc::new(PreparedPolicySet::compile(&crate::monitor::default_policy()));
        // Attaches to a fresh medium, publishes `(small, heavy)` at each
        // time pair and checkpoints; returns the history record's file.
        let history_file = |pairs: &[SimTime]| {
            let mut analyser = Analyser::from_prepared(
                heavy.clone(),
                SymmetricKey::from_bytes([3; 32]),
                Keypair::from_seed(b"analyser"),
                BTreeMap::new(),
            );
            let backend = FaultyBackend::default();
            analyser.attach_checkpoint(backend.store()).unwrap();
            for &at in pairs {
                analyser.publish_prepared(small.clone(), at);
                analyser.publish_prepared(heavy.clone(), at + 500);
            }
            analyser.checkpoint().unwrap();
            assert_eq!(analyser.policy_history_len(), 2);
            backend
                .read(&generation_file_name(analyser.history_generation))
                .unwrap()
        };
        let pairs: Vec<SimTime> = (1..=10).map(|i| 1_000 * i).collect();
        let churned = history_file(&pairs);
        // Ten pairs cost what one pair does: each version once.
        assert!(
            churned.len() < 310_000,
            "history record: {} B",
            churned.len()
        );
        assert_eq!(churned, history_file(&pairs[9..]));
    }

    #[test]
    fn a_history_record_with_repeated_digests_recovers_to_the_same_verifier() {
        let default = crate::monitor::default_policy();
        let publishes = [
            (default.clone(), 1_000),
            (policy(), 2_000),
            (default.clone(), 3_000),
            (clause_policy(), 3_000),
            (default.clone(), 4_000),
        ];
        let mut live = rig();
        for (published, at) in &publishes {
            publish(&mut live.analyser, published.clone(), *at);
        }
        // The record as a log of every publish writes it: the baseline,
        // then each publish in turn, digests repeating.
        let mut log = Writer::new();
        log.put_u8(CHECKPOINT_VERSION);
        let compiled = PreparedPolicySet::compile;
        write_policy(&mut log, &compiled(&policy()));
        log.put_varint(publishes.len() as u64);
        for (published, at) in &publishes {
            log.put_u8(1);
            write_policy(&mut log, &compiled(published));
            log.put_u64(*at);
        }
        let mut r = rig();
        let backend = FaultyBackend::default();
        r.analyser.attach_checkpoint(backend.store()).unwrap();
        backend
            .store()
            .save_generation(1, &log.into_bytes())
            .unwrap();

        let mut recovered = recover_from(&backend).unwrap();
        assert_eq!(versions_of(&recovered), versions_of(&live.analyser));
        assert_eq!(recovered.policy_history_len(), 3);
        // Its next history record lists each version once.
        recovered.history_dirty = true;
        recovered.checkpoint().unwrap();
        let held: Vec<Digest> = versions_of(&recovered).iter().map(|v| v.0).collect();
        assert_eq!(record_versions(&history_record(&backend, &recovered)), held);
    }

    #[test]
    fn recover_without_checkpoint_is_not_found() {
        // A new Analyser owns an empty store until its first checkpoint.
        let err = rig().analyser.crash_restart().unwrap_err();
        assert!(matches!(err, drams_store::StoreError::NotFound(_)));
    }

    /// Runs an honest, permitted doctor group in which the entry at
    /// `point` carries `plaintext` sealed under `key` instead of its
    /// envelope, MAC'd by its own probe: only the payload is wrong.
    /// Returns what the Analyser raises.
    fn poll_group_with_payload(
        point: ObservationPoint,
        key: &SymmetricKey,
        plaintext: &[u8],
    ) -> Vec<Alert> {
        let mut r = rig();
        let corr = CorrelationId(30);
        let req_env = RequestEnvelope {
            correlation: corr,
            tenant: TenantId(1),
            pep: PepId(1),
            service: "svc".into(),
            request: Request::builder().subject("role", "doctor").build(),
            issued_at: 100,
        };
        let resp_env = ResponseEnvelope {
            correlation: corr,
            pep: PepId(1),
            response: honest_response("doctor"),
            policy_version: policy().version_digest(),
            decided_at: 200,
        };
        let mut entries = [
            r.pep_probe
                .observe_request(ObservationPoint::PepRequest, &req_env, 100),
            r.pdp_probe
                .observe_request(ObservationPoint::PdpRequest, &req_env, 150),
            r.pdp_probe.observe_pdp_response(&resp_env, 200),
            r.pep_probe.observe_pep_response(&resp_env, true, 250),
        ];
        let entry = &mut entries[usize::from(point.code())];
        let aad = crate::logent::payload_aad(entry.correlation, entry.point, &entry.digest);
        entry.sealed_payload = drams_crypto::aead::seal(key, [7; 12], &aad, plaintext);
        let mac_key = if entry.probe == ProbeId(1) {
            [11; 32]
        } else {
            [22; 32]
        };
        entry.probe_mac = entry.compute_mac(&mac_key);
        let li = Keypair::from_seed(b"li");
        for e in &entries {
            r.node
                .submit_call(
                    &li,
                    MONITOR_CONTRACT,
                    "store_log_batch",
                    crate::contract::encode_batch(std::slice::from_ref(e)),
                )
                .unwrap();
        }
        r.node.mine_block(1_000).unwrap();
        r.analyser.poll(&mut r.node, 2_000)
    }

    /// A payload that authenticates but is not what its probe seals is a
    /// finding at every point, never a silent skip: each case raises one
    /// `MonitorCompromise` naming the point.
    #[test]
    fn well_macd_garbage_payloads_are_monitor_compromise() {
        use ObservationPoint::{PdpRequest, PdpResponse, PepResponse};
        let federation = SymmetricKey::from_bytes([3; 32]);
        let foreign = SymmetricKey::from_bytes([4; 32]);
        let cases: [(ObservationPoint, &SymmetricKey, &[u8], &str); 6] = [
            (
                PdpRequest,
                &federation,
                b"garbage",
                "pdp-request payload does not decode",
            ),
            (
                PdpResponse,
                &federation,
                b"garbage",
                "pdp-response payload does not decode",
            ),
            (
                PepResponse,
                &federation,
                b"garbage",
                "pep-response payload does not decode",
            ),
            (
                PepResponse,
                &federation,
                b"",
                "pep-response payload does not decode",
            ),
            (
                PepResponse,
                &foreign,
                b"\x01",
                "pep-response payload does not decrypt",
            ),
            (
                PdpRequest,
                &foreign,
                b"\x01",
                "pdp-request payload does not decrypt",
            ),
        ];
        for (point, key, plaintext, detail) in cases {
            let alerts = poll_group_with_payload(point, key, plaintext);
            assert_eq!(
                alerts,
                [Alert::new(
                    AlertKind::MonitorCompromise,
                    CorrelationId(30),
                    2_000,
                    detail
                )],
                "{point} carrying {plaintext:?}"
            );
        }
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
        let foreign = SymmetricKey::from_bytes([99; 32]);
        assert!(entry
            .view()
            .open_payload_into(&r.key, &mut Vec::new())
            .is_ok());
        assert!(entry
            .view()
            .open_payload_into(&foreign, &mut Vec::new())
            .is_err());
    }
}
