//! The decision plane: the PRP and the PDP slots, each with its probe and
//! its journaled idempotency cache.
//!
//! A slot's journal is the one copy of each as-sent response. The cache
//! in memory maps each live correlation to the sequence number of its
//! journal record, and a retransmitted or duplicated request is answered
//! by reading that record back, so a decision costs the heap one
//! `(CorrelationId, u64)` entry rather than a second, decoded envelope.

use super::ctx::Ctx;
use super::msg::{Msg, Outbox, PolicyAdmin};
use super::spec::probe_mac_key;
use crate::li::mem_wal;
use crate::logent::{ObservationPoint, ProbeId};
use crate::probe::Probe;
use drams_crypto::aead::SymmetricKey;
use drams_crypto::codec::{Decode, Encode, Reader, Writer};
use drams_crypto::CryptoError;
use drams_faas::des::SimTime;
use drams_faas::msg::{CorrelationId, ResponseEnvelope};
use drams_faas::prp::{PolicyVersion, Prp};
use drams_policy::pdp::Pdp;
use drams_store::{StoreError, Wal};
use std::collections::{HashMap, VecDeque};

/// Records per PDP journal segment: compaction drops whole segments.
const JOURNAL_SEGMENT_RECORDS: u64 = 64;

/// One PDP instance (central, or one per member cloud) with its probe.
pub(super) struct PdpSlot {
    pdp: Pdp,
    probe: Probe,
    silenced_until: SimTime,
    /// The journal sequence number of each live as-sent response, by
    /// correlation: a retransmitted or duplicated request is answered
    /// byte-identically from that record (re-deciding would stamp a new
    /// `decided_at`, change the response digest and trip the Analyser's
    /// conflicting-observation check), without re-observing or re-running
    /// adversary hooks. Compaction never prunes below the oldest live
    /// decision, so every position here is retained.
    decided: HashMap<CorrelationId, u64>,
    /// Decisions in `decided_at` order with the journal sequence number
    /// of each, for retention-window eviction (kept in lockstep with
    /// `decided`). Empty at retention 0, where nothing is evicted.
    decided_order: VecDeque<(SimTime, CorrelationId, u64)>,
    /// Retention window of the idempotency cache: entries older than
    /// this are evicted — provably safe past [`MIN_RETENTION`], since no
    /// retransmission can arrive after the retry budget. 0 = keep all.
    retention: SimTime,
    /// Write-ahead journal, the slot's whole durable state: every
    /// decision with the probe's observation count after it, and every
    /// silence window, as they happened. Decisions are evicted in
    /// journal order, so the live window is a suffix of the journal and
    /// compaction only snapshots the silence and count and prunes the
    /// segments below the oldest live decision.
    journal: Wal,
    /// Where [`PdpSlot::remember`] encodes each decision record: kept, so
    /// a decision allocates no buffer once it has grown to the largest
    /// record.
    record: Writer,
}

/// PDP journal record tag: a cached as-sent decision.
const PDP_JOURNAL_DECIDED: u8 = 1;
/// PDP journal record tag: a standing silence window.
const PDP_JOURNAL_SILENCE: u8 = 2;

/// A PDP journal record read back.
enum JournalRecord {
    /// The as-sent response and the probe's observation count after it.
    Decided(ResponseEnvelope, u64),
    Silence(SimTime),
}

impl Decode for JournalRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        match r.get_u8()? {
            PDP_JOURNAL_DECIDED => {
                let observations = r.get_u64()?;
                Ok(JournalRecord::Decided(
                    ResponseEnvelope::decode(r)?,
                    observations,
                ))
            }
            PDP_JOURNAL_SILENCE => Ok(JournalRecord::Silence(r.get_u64()?)),
            tag => Err(CryptoError::Malformed(format!(
                "unknown pdp journal record tag {tag}"
            ))),
        }
    }
}

impl PdpSlot {
    pub(super) fn new(probe_id: ProbeId, key: &SymmetricKey, pdp: Pdp, retention: SimTime) -> Self {
        PdpSlot {
            pdp,
            probe: Probe::new(probe_id, key.clone(), probe_mac_key(probe_id)),
            silenced_until: 0,
            decided: HashMap::new(),
            decided_order: VecDeque::new(),
            retention,
            journal: mem_wal(JOURNAL_SEGMENT_RECORDS as usize),
            record: Writer::new(),
        }
    }

    /// Caches and journals the as-sent response to `correlation`, ages
    /// out what the retention window has closed on, and compacts the
    /// journal once a sealed segment lies wholly below the oldest live
    /// decision (at retention 0 every decision stays live, so it never
    /// does). Returns how many entries were evicted.
    fn remember(
        &mut self,
        correlation: CorrelationId,
        env: &ResponseEnvelope,
        now: SimTime,
    ) -> u64 {
        self.record.clear();
        self.record.put_u8(PDP_JOURNAL_DECIDED);
        self.record.put_u64(self.probe.observations());
        env.encode(&mut self.record);
        let seq = self
            .journal
            .append(self.record.as_bytes())
            .expect("pdp journal append");
        let evicted = self.admit(now, correlation, seq);
        if self.retention == 0 {
            return evicted;
        }
        let base = self
            .decided_order
            .front()
            .map_or(self.journal.next_seq(), |&(_, _, seq)| seq);
        if self.journal.first_retained_seq() + JOURNAL_SEGMENT_RECORDS <= base {
            self.compact_journal(base);
        }
        evicted
    }

    /// The as-sent response to `correlation`, read back from its journal
    /// record, or `None` once the retention window has closed on it (or
    /// it was never decided).
    fn as_sent(&self, correlation: CorrelationId) -> Option<ResponseEnvelope> {
        let &seq = self.decided.get(&correlation)?;
        let record = self
            .journal
            .read_record(seq)
            .expect("pdp journal retains every live decision");
        let Ok(JournalRecord::Decided(env, _)) = JournalRecord::from_canonical_bytes(&record)
        else {
            panic!("pdp journal record {seq} is not the decision the cache indexes");
        };
        Some(env)
    }

    /// Indexes the decision on `correlation` at journal position `seq`,
    /// decided at `now`, and drops the entries whose retention window has
    /// closed by `now`. At retention 0 nothing is ever evicted, so nothing
    /// is queued for eviction either. Returns how many entries went.
    fn admit(&mut self, now: SimTime, correlation: CorrelationId, seq: u64) -> u64 {
        self.decided.insert(correlation, seq);
        if self.retention == 0 {
            return 0;
        }
        self.decided_order.push_back((now, correlation, seq));
        let mut evicted = 0;
        while let Some(&(decided_at, corr, _)) = self.decided_order.front() {
            if decided_at.saturating_add(self.retention) > now {
                break;
            }
            self.decided_order.pop_front();
            self.decided.remove(&corr);
            evicted += 1;
        }
        evicted
    }

    /// Snapshots the standing silence and the probe's observation count
    /// under `base`, the sequence number of the oldest live decision, and
    /// drops the sealed segments below it. Nothing is re-encoded: the
    /// snapshot has a fixed size, and recovery replays the journal from
    /// `base` as written. The records it replays carry values no newer
    /// than the snapshot's, and end on the ones that stand.
    fn compact_journal(&mut self, base: u64) {
        let mut w = Writer::with_capacity(16);
        w.put_u64(self.silenced_until);
        // `base` is a live decision, whose replayed count overrides this
        // one; it stands only if a compaction ever leaves no decision.
        w.put_u64(self.probe.observations());
        self.journal
            .write_snapshot(base, &w.into_bytes())
            .expect("pdp journal snapshot");
        self.journal.prune_through(base).expect("pdp journal prune");
    }

    fn journal_silence(&mut self, until: SimTime) {
        let mut w = Writer::with_capacity(9);
        w.put_u8(PDP_JOURNAL_SILENCE);
        w.put_u64(until);
        self.journal
            .append(&w.into_bytes())
            .expect("pdp journal append");
    }

    /// Kills the slot's process state and rebuilds it: the engine from
    /// the PRP's durable active policy; the decision cache (the journal
    /// position of each live decision), the silence window and the
    /// probe's observation count from the journal; the probe from its key
    /// and that count, so it seals under the nonce its uncrashed twin
    /// would use next.
    ///
    /// Every replayed decision re-runs the eviction pass it ran when it
    /// was taken, with its own `decided_at` as the clock, so the restarted
    /// slot holds exactly the window its uncrashed twin holds. Those
    /// evictions were reported when they first happened and are not
    /// reported again; the journal is not compacted while it is being
    /// read.
    ///
    /// A snapshot or record that does not decode — cut short, or with an
    /// unknown tag — is a [`StoreError::Codec`].
    fn crash_restart(&mut self, key: &SymmetricKey, active: Pdp) -> Result<(), StoreError> {
        let codec = |e: CryptoError| StoreError::Codec(format!("pdp journal: {e}"));
        self.journal.simulate_crash()?;
        self.pdp = active;
        self.decided.clear();
        self.decided_order.clear();
        let (base, mut observations) = match self.journal.read_snapshot()? {
            Some((base, payload)) => {
                let mut r = Reader::new(&payload);
                self.silenced_until = r.get_u64().map_err(codec)?;
                let observations = r.get_u64().map_err(codec)?;
                r.finish().map_err(codec)?;
                (base, observations)
            }
            None => {
                self.silenced_until = 0;
                (0, 0)
            }
        };
        for (seq, rec) in self.journal.replay_from(base)? {
            match JournalRecord::from_canonical_bytes(&rec).map_err(codec)? {
                JournalRecord::Decided(env, count) => {
                    observations = count;
                    self.admit(env.decided_at, env.correlation, seq);
                }
                JournalRecord::Silence(until) => self.silenced_until = until,
            }
        }
        let id = self.probe.id();
        self.probe = Probe::resume(id, key.clone(), probe_mac_key(id), observations);
        Ok(())
    }
}

/// The decision plane: the PRP (version store) plus the deployed PDPs.
pub(super) struct PdpService {
    pub(super) prp: Prp,
    pub(super) slots: Vec<PdpSlot>,
    pub(super) infra_li: usize,
    pub(super) key: SymmetricKey,
}

impl PdpService {
    /// Applies a policy-administration action and points every slot at
    /// the version it activates, which it returns. A rollback republishes
    /// the stored version itself under a new number: the digest (and thus
    /// the version the probes log) is the old one again, and nothing is
    /// copied or recompiled.
    fn administer(&mut self, action: PolicyAdmin) -> PolicyVersion {
        match action {
            PolicyAdmin::Publish(policy) => {
                self.prp.publish(policy);
            }
            PolicyAdmin::Rollback(version) => {
                self.prp
                    .rollback(version)
                    .expect("script rolls back to a published version");
            }
        }
        let active = self.prp.active();
        for slot in &mut self.slots {
            slot.pdp = active.pdp();
        }
        active.clone()
    }

    /// Restarts slot `slot` from its journal, serving the PRP's durable
    /// active policy (see [`PdpSlot::crash_restart`]).
    pub(super) fn crash_restart(&mut self, slot: usize) -> Result<(), StoreError> {
        let active = self.prp.active().pdp();
        self.slots[slot].crash_restart(&self.key, active)
    }

    pub(super) fn handle(&mut self, now: SimTime, msg: Msg, ctx: &mut Ctx<'_>, out: &mut Outbox) {
        match msg {
            Msg::PdpReceive { slot, env } => {
                let s = &mut self.slots[slot];
                if now < s.silenced_until {
                    // Fault window: a silent PDP neither observes nor
                    // answers — the PEP's retry budget decides whether
                    // the request survives the outage.
                    return;
                }
                if let Some(resp_env) = s.as_sent(env.correlation) {
                    // Retransmission (or fault-plane duplicate) of an
                    // answered request: resend the as-sent response
                    // byte-identically. No re-observation, no adversary
                    // hooks — the originals already ran.
                    let latency = ctx.pep_pdp.sample(&mut ctx.rngs.net);
                    out.emit(
                        latency,
                        Msg::PepReceive {
                            slot,
                            env: resp_env,
                        },
                    );
                    return;
                }
                if ctx.monitoring {
                    let entry = s
                        .probe
                        .observe_request(ObservationPoint::PdpRequest, &env, now);
                    ctx.deliver_to_li(out, self.infra_li, entry, now);
                }
                let response = s.pdp.evaluate(&env.request);
                let mut resp_env = ResponseEnvelope {
                    correlation: env.correlation,
                    pep: env.pep,
                    response,
                    policy_version: s.pdp.policy_version(),
                    decided_at: now,
                };
                if ctx.adversary.corrupt_pdp_decision(&mut resp_env, now) {
                    ctx.truth.corrupted_decisions.push(resp_env.correlation);
                }
                if ctx.monitoring {
                    let entry = s.probe.observe_pdp_response(&resp_env, now);
                    ctx.deliver_to_li(out, self.infra_li, entry, now);
                }
                if ctx.adversary.tamper_response_in_transit(&mut resp_env, now) {
                    ctx.truth.tampered_responses.push(resp_env.correlation);
                }
                ctx.report.idempotency_evictions += s.remember(env.correlation, &resp_env, now);
                ctx.report.peak.pdp_idempotency =
                    ctx.report.peak.pdp_idempotency.max(s.decided.len() as u64);
                let latency = ctx.pep_pdp.sample(&mut ctx.rngs.net);
                out.emit(
                    latency,
                    Msg::PepReceive {
                        slot,
                        env: resp_env,
                    },
                );
            }
            Msg::PolicyAdmin(action) => {
                let active = self.administer(action);
                ctx.report.policy_activations += 1;
                out.emit(0, Msg::AnalyserPolicy(active));
            }
            Msg::SilencePdp { slot, until } => {
                self.slots[slot].silenced_until = until;
                self.slots[slot].journal_silence(until);
            }
            _ => unreachable!("misrouted event"),
        }
    }
}

// The twin tests restart slots whose journals are sound and judge the
// restart by comparing the slot with its uncrashed twin; the damaged-
// journal test checks the error.
#[cfg(test)]
#[allow(unused_must_use)]
mod tests {
    use super::*;
    use crate::scenario::MIN_RETENTION;
    use drams_faas::model::PepId;
    use drams_policy::decision::{ExtDecision, Response};

    fn slot(key: &SymmetricKey) -> PdpSlot {
        let prp = Prp::new(crate::monitor::default_policy());
        PdpSlot::new(ProbeId(0), key, prp.active().pdp(), MIN_RETENTION)
    }

    /// The response to request `i`, decided at `now`: decisions and PEPs
    /// vary with `i`, so no two read-backs could be mistaken for each other.
    fn envelope(slot: &PdpSlot, i: u64, now: SimTime) -> ResponseEnvelope {
        let decision = [
            ExtDecision::Permit,
            ExtDecision::Deny,
            ExtDecision::NotApplicable,
        ];
        ResponseEnvelope {
            correlation: CorrelationId(i),
            pep: PepId((i % 5) as u32),
            response: Response::new(decision[(i % 3) as usize], Vec::new()),
            policy_version: slot.pdp.policy_version(),
            decided_at: now,
        }
    }

    /// One decision as the service takes it: observed by the slot's
    /// probe, then remembered. Returns how many entries were evicted.
    fn decide(slot: &mut PdpSlot, i: u64, now: SimTime) -> u64 {
        let env = envelope(slot, i, now);
        slot.probe.observe_pdp_response(&env, now);
        slot.remember(env.correlation, &env, now)
    }

    fn active() -> Pdp {
        Prp::new(crate::monitor::default_policy()).active().pdp()
    }

    #[test]
    fn crashed_slot_replays_to_its_uncrashed_twin() {
        let key = SymmetricKey::from_bytes([42; 32]);
        let (mut twin, mut crashed) = (slot(&key), slot(&key));
        // One decision per step; a hundred steps span the retention
        // window, so every later decision evicts one — enough of them to
        // compact the journal and leave a tail behind the snapshot.
        let step = MIN_RETENTION / 100;
        let decisions = 100 + 3 * JOURNAL_SEGMENT_RECORDS + 40;
        let mut evicted = 0;
        for s in [&mut twin, &mut crashed] {
            // Folded into the compaction snapshot...
            s.silenced_until = 5;
            s.journal_silence(5);
            evicted = (0..decisions).map(|i| decide(s, i, i * step)).sum();
            // ...and overridden from the journal tail.
            s.silenced_until = 9;
            s.journal_silence(9);
        }
        assert_eq!(evicted, decisions - 100);
        assert!(
            crashed.journal.read_snapshot().unwrap().is_some(),
            "the journal must have compacted"
        );
        assert!(crashed.journal.first_retained_seq() > 0, "and pruned");

        crashed.crash_restart(&key, active());

        // The restarted slot holds exactly the twin's window — replay
        // re-ran the evictions made since the compaction — so every
        // decision the twin can still be asked for is answered with the
        // as-sent bytes, the silence window stands, and the probe seals
        // its next observation under the twin's nonce.
        assert_eq!(crashed.silenced_until, twin.silenced_until);
        assert_eq!(crashed.decided, twin.decided);
        assert_eq!(crashed.decided_order, twin.decided_order);
        assert_eq!(crashed.probe.observations(), decisions);
        // From here on the two evict (and would report) and compact in
        // lockstep: the run's `idempotency_evictions` is the sum of these
        // returns.
        let next = decisions..decisions + 2 * JOURNAL_SEGMENT_RECORDS;
        let twin_evicted: u64 = next.clone().map(|i| decide(&mut twin, i, i * step)).sum();
        let crashed_evicted: u64 = next.map(|i| decide(&mut crashed, i, i * step)).sum();
        assert_eq!(crashed_evicted, twin_evicted);
        assert_eq!(crashed.decided, twin.decided);
        assert_eq!(crashed.decided_order, twin.decided_order);
        assert_eq!(
            crashed.journal.read_snapshot().unwrap(),
            twin.journal.read_snapshot().unwrap()
        );
        assert!(!crashed.decided.contains_key(&CorrelationId(0)), "evicted");
        let env = twin
            .as_sent(CorrelationId(decisions + 2 * JOURNAL_SEGMENT_RECORDS - 1))
            .expect("the last decision is live");
        assert_eq!(
            crashed.probe.observe_pdp_response(&env, 0),
            twin.probe.observe_pdp_response(&env, 0)
        );
    }

    #[test]
    fn every_live_decision_reads_back_from_the_journal_as_sent() {
        let key = SymmetricKey::from_bytes([42; 32]);
        let mut s = slot(&key);
        let mut sent = HashMap::new();
        // Every live correlation answers with the envelope first sent, and
        // the evicted ones with nothing.
        let reads_back = |s: &PdpSlot, sent: &HashMap<CorrelationId, ResponseEnvelope>| {
            for (corr, env) in sent {
                if s.decided.contains_key(corr) {
                    assert_eq!(s.as_sent(*corr).as_ref(), Some(env), "{corr:?}");
                } else {
                    assert_eq!(s.as_sent(*corr), None, "{corr:?} was evicted");
                }
            }
            s.decided.len()
        };
        // A hundred steps span the retention window, as in the twin test.
        let step = MIN_RETENTION / 100;
        let mut i = 0;
        let mut decide_until =
            |s: &mut PdpSlot, sent: &mut HashMap<_, _>, done: fn(&PdpSlot) -> bool| {
                while !done(s) {
                    sent.insert(CorrelationId(i), envelope(s, i, i * step));
                    decide(s, i, i * step);
                    i += 1;
                }
            };

        // All in the tail segment.
        decide_until(&mut s, &mut sent, |s| s.journal.next_seq() == 10);
        assert_eq!(s.journal.segment_count(), 1);
        assert_eq!(reads_back(&s, &sent), 10);
        // The first 64 in a sealed segment, nothing pruned yet.
        decide_until(&mut s, &mut sent, |s| s.journal.next_seq() == 80);
        assert_eq!(s.journal.segment_count(), 2);
        assert_eq!(s.journal.first_retained_seq(), 0);
        assert_eq!(reads_back(&s, &sent), 80);
        // Evictions moved the oldest live decision past a whole segment,
        // and compaction pruned it; the window now spans a sealed segment
        // and the tail.
        decide_until(&mut s, &mut sent, |s| s.journal.first_retained_seq() > 0);
        decide_until(&mut s, &mut sent, |s| {
            s.journal.next_seq() % JOURNAL_SEGMENT_RECORDS == 7
        });
        assert!(s.journal.segment_count() >= 2);
        assert!(s.journal.read_snapshot().unwrap().is_some());
        let live = reads_back(&s, &sent);
        assert!(live < sent.len(), "some decisions were evicted");
        // A restart indexes the same positions from the journal.
        let before = s.decided.clone();
        s.crash_restart(&key, active()).unwrap();
        assert_eq!(s.decided, before);
        assert_eq!(reads_back(&s, &sent), live);
    }

    #[test]
    fn retention_zero_queues_nothing_and_every_decision_reads_back() {
        let key = SymmetricKey::from_bytes([42; 32]);
        let prp = Prp::new(crate::monitor::default_policy());
        let mut s = PdpSlot::new(ProbeId(0), &key, prp.active().pdp(), 0);
        // Decisions a whole retention window apart, over several journal
        // segments: any positive retention would evict all but the last
        // and compact.
        let decisions = 3 * JOURNAL_SEGMENT_RECORDS + 5;
        let mut sent = Vec::new();
        for i in 0..decisions {
            sent.push(envelope(&s, i, i * MIN_RETENTION));
            assert_eq!(decide(&mut s, i, i * MIN_RETENTION), 0, "nothing evicted");
        }
        let reads_back = |s: &PdpSlot| {
            assert!(s.decided_order.is_empty(), "no eviction queue");
            assert_eq!(s.decided.len(), sent.len());
            for env in &sent {
                assert_eq!(s.as_sent(env.correlation).as_ref(), Some(env));
            }
        };
        reads_back(&s);
        assert_eq!(s.journal.first_retained_seq(), 0, "never compacted");
        assert!(s.journal.read_snapshot().unwrap().is_none());
        s.crash_restart(&key, active()).unwrap();
        reads_back(&s);
    }

    #[test]
    fn policy_churn_shares_one_compiled_version_with_every_slot_and_the_analyser() {
        use crate::analyser::Analyser;
        use drams_crypto::schnorr::Keypair;
        use drams_policy::combining::CombiningAlg;
        use drams_policy::policy::PolicySet;
        use std::sync::Arc;

        let key = SymmetricKey::from_bytes([42; 32]);
        let prp = Prp::new(crate::monitor::default_policy());
        let v0 = prp.active().clone();
        let mut service = PdpService {
            slots: (0..2)
                .map(|i| PdpSlot::new(ProbeId(i), &key, prp.active().pdp(), MIN_RETENTION))
                .collect(),
            prp,
            infra_li: 0,
            key: key.clone(),
        };
        let mut analyser = Analyser::from_prepared(
            v0.prepared.clone(),
            key,
            Keypair::from_seed(b"drams-analyser"),
            Default::default(),
        );
        assert!(Arc::ptr_eq(analyser.verifier().prepared(), &v0.prepared));
        let stricter = PolicySet::builder("strict-root", CombiningAlg::DenyUnlessPermit).build();
        for (action, now) in [
            (PolicyAdmin::Publish(stricter), 1_000),
            (PolicyAdmin::Rollback(0), 2_000),
        ] {
            // What `Msg::AnalyserPolicy` carries and the Analyser service
            // does with it.
            let active = service.administer(action);
            analyser.publish_prepared(active.prepared, now);
            let prepared = &service.prp.active().prepared;
            for slot in &service.slots {
                assert!(Arc::ptr_eq(slot.pdp.prepared(), prepared));
            }
            assert!(Arc::ptr_eq(analyser.verifier().prepared(), prepared));
        }
        // The rollback republished version 0 itself, under a new number.
        let active = service.prp.active();
        assert_eq!((active.number, active.digest), (2, v0.digest));
        assert!(Arc::ptr_eq(&active.prepared, &v0.prepared));
        assert_eq!(analyser.verifier().authorised_version(), v0.digest);
    }

    #[test]
    fn damaged_journals_are_typed_errors_not_panics() {
        let key = SymmetricKey::from_bytes([42; 32]);
        // A slot whose journal compacted, with a silence window in the
        // snapshot and a few live decisions in the tail.
        let compacted = || {
            let mut s = slot(&key);
            s.silenced_until = 5;
            s.journal_silence(5);
            let step = MIN_RETENTION / 4;
            let mut i = 0;
            while s.journal.read_snapshot().unwrap().is_none() {
                decide(&mut s, i, i * step);
                i += 1;
            }
            decide(&mut s, i, i * step);
            s
        };
        let mut s = compacted();
        let (seq, snapshot) = s.journal.read_snapshot().unwrap().unwrap();
        let (_, decided) = s.journal.replay_from(seq).unwrap().pop().unwrap();
        assert_eq!(decided[0], PDP_JOURNAL_DECIDED);
        let (cache, silenced_until) = (s.decided.clone(), s.silenced_until);
        let observations = s.probe.observations();

        // The snapshot cut short at every length.
        for cut in 0..snapshot.len() {
            s.journal.write_snapshot(seq, &snapshot[..cut]).unwrap();
            let err = s.crash_restart(&key, active()).unwrap_err();
            assert!(
                matches!(err, StoreError::Codec(_)),
                "snapshot[..{cut}]: {err:?}"
            );
        }
        s.journal.write_snapshot(seq, &snapshot).unwrap();
        assert!(s.crash_restart(&key, active()).is_ok());
        assert_eq!((&s.decided, s.silenced_until), (&cache, silenced_until));
        assert_eq!(s.probe.observations(), observations);

        // A decision record with its count cut short at every length, and
        // a record with an unknown tag, in the tail.
        let cuts = (0..decided.len()).map(|cut| &decided[..cut]);
        for record in cuts.chain([&[PDP_JOURNAL_SILENCE + 1][..]]) {
            let mut damaged = compacted();
            damaged.journal.append(record).unwrap();
            let err = damaged.crash_restart(&key, active()).unwrap_err();
            assert!(matches!(err, StoreError::Codec(_)), "{record:?}: {err:?}");
        }
    }

    #[test]
    fn compaction_prunes_behind_a_fixed_size_snapshot() {
        let key = SymmetricKey::from_bytes([42; 32]);
        let mut snapshots = Vec::new();
        for window in [100, 4_000] {
            let mut s = slot(&key);
            // `window` steps span the retention window: from decision
            // `window` on, each decision evicts one and the window holds
            // `window` entries.
            let step = MIN_RETENTION / window;
            let mut silences = 0;
            for i in 0..window + 4 * JOURNAL_SEGMENT_RECORDS {
                if i % 50 == 0 {
                    s.silenced_until = i;
                    s.journal_silence(i);
                    silences += 1;
                }
                decide(&mut s, i, i * step);
                let retained = s.journal.next_seq() - s.journal.first_retained_seq();
                assert!(
                    retained <= window + JOURNAL_SEGMENT_RECORDS + silences,
                    "window {window}, decision {i}: {retained} records retained"
                );
            }
            let (_, snapshot) = s.journal.read_snapshot().unwrap().expect("compacted");
            snapshots.push(snapshot);
        }
        assert_eq!(snapshots[0].len(), 16);
        assert_eq!(
            snapshots[0].len(),
            snapshots[1].len(),
            "whatever the window"
        );
    }
}
