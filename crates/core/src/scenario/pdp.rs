//! The decision plane: the PRP and the PDP slots, each with its probe and
//! its journaled idempotency cache.

use super::ctx::{mem_wal, Ctx};
use super::msg::{Msg, PolicyAdmin};
use super::spec::probe_mac_key;
use crate::logent::{ObservationPoint, ProbeId};
use crate::probe::Probe;
use drams_crypto::aead::SymmetricKey;
use drams_crypto::codec::{Decode, Encode};
use drams_faas::des::{Outbox, SimService, SimTime};
use drams_faas::msg::{CorrelationId, ResponseEnvelope};
use drams_faas::prp::Prp;
use drams_faas::transport::WireRole;
use drams_policy::pdp::Pdp;
use drams_store::Wal;
use std::collections::{HashMap, VecDeque};

/// Fewest evictions of the PDP idempotency cache between two compactions
/// of its journal (snapshot of the live window + prune of sealed
/// segments). A compaction re-encodes the whole live window, so the
/// trigger is this or the window's size, whichever is larger: at most one
/// envelope re-encoded per eviction, amortised, and a journal at most
/// about twice the window.
const PDP_COMPACT_EVICTIONS: u64 = 256;

/// One PDP instance (central, or one per member cloud) with its probe.
pub(super) struct PdpSlot {
    pdp: Pdp,
    probe: Probe,
    probe_id: ProbeId,
    silenced_until: SimTime,
    /// As-sent responses by correlation: a retransmitted or duplicated
    /// request is answered byte-identically (re-deciding would stamp a
    /// new `decided_at`, change the response digest and trip the
    /// Analyser's conflicting-observation check), without re-observing
    /// or re-running adversary hooks.
    decided: HashMap<CorrelationId, ResponseEnvelope>,
    /// Decisions in `decided_at` order, for retention-window eviction
    /// (kept in lockstep with `decided`).
    decided_order: VecDeque<(SimTime, CorrelationId)>,
    /// Retention window of the idempotency cache: entries older than
    /// this are evicted — provably safe past [`MIN_RETENTION`], since no
    /// retransmission can arrive after the retry budget. 0 = keep all.
    retention: SimTime,
    /// Evictions since the journal was last compacted.
    evictions_since_compact: u64,
    /// Write-ahead journal of the decision cache and any standing
    /// silence window, so a crashed PDP restarts idempotent. Under a
    /// retention window it is periodically compacted: a snapshot of the
    /// live entries replaces the evicted prefix.
    journal: Wal,
}

/// PDP journal record: a cached as-sent decision.
const PDP_JOURNAL_DECIDED: u8 = 1;
/// PDP journal record: a standing silence window.
const PDP_JOURNAL_SILENCE: u8 = 2;

impl PdpSlot {
    pub(super) fn new(probe_id: ProbeId, key: &SymmetricKey, pdp: Pdp, retention: SimTime) -> Self {
        PdpSlot {
            pdp,
            probe: Probe::new(probe_id, key.clone(), probe_mac_key(probe_id)),
            probe_id,
            silenced_until: 0,
            decided: HashMap::new(),
            decided_order: VecDeque::new(),
            retention,
            evictions_since_compact: 0,
            journal: mem_wal(64),
        }
    }

    /// Caches and journals the as-sent response to `correlation`, then
    /// ages out what the retention window has closed on. Returns how many
    /// entries were evicted.
    fn remember(
        &mut self,
        correlation: CorrelationId,
        env: &ResponseEnvelope,
        now: SimTime,
    ) -> u64 {
        self.decided_order.push_back((now, correlation));
        self.decided.insert(correlation, env.clone());
        self.journal_decision(env);
        self.evict_expired(now)
    }

    /// Ages out idempotency entries whose retention window has closed
    /// and compacts the journal once enough have gone. Returns how many
    /// were evicted.
    fn evict_expired(&mut self, now: SimTime) -> u64 {
        let evicted = self.age_out(now);
        let live = self.decided_order.len() as u64;
        if self.evictions_since_compact >= PDP_COMPACT_EVICTIONS.max(live) {
            self.compact_journal();
        }
        evicted
    }

    /// Drops the entries whose retention window has closed by `now` and
    /// adds them to `evictions_since_compact`. Returns how many went.
    fn age_out(&mut self, now: SimTime) -> u64 {
        if self.retention == 0 {
            return 0;
        }
        let mut evicted = 0;
        while let Some(&(decided_at, corr)) = self.decided_order.front() {
            if decided_at.saturating_add(self.retention) > now {
                break;
            }
            self.decided_order.pop_front();
            self.decided.remove(&corr);
            evicted += 1;
        }
        self.evictions_since_compact += evicted;
        evicted
    }

    /// Rewrites the journal as one snapshot of the live window plus an
    /// empty tail: recovery replays exactly the un-evicted entries, so a
    /// crashed PDP is byte-equivalent to an uncrashed one.
    fn compact_journal(&mut self) {
        let mut payload = Vec::new();
        payload.extend_from_slice(&self.silenced_until.to_be_bytes());
        payload.extend_from_slice(&(self.decided_order.len() as u64).to_be_bytes());
        for &(_, corr) in &self.decided_order {
            let env = &self.decided[&corr];
            let bytes = env.to_canonical_bytes();
            payload.extend_from_slice(
                &u32::try_from(bytes.len())
                    .expect("envelope fits u32")
                    .to_be_bytes(),
            );
            payload.extend_from_slice(&bytes);
        }
        let upto = self.journal.next_seq();
        self.journal
            .write_snapshot(upto, &payload)
            .expect("pdp journal snapshot");
        self.journal.prune_through(upto).expect("pdp journal prune");
        self.evictions_since_compact = 0;
    }

    /// Restores the decision cache from a compaction snapshot payload.
    fn restore_snapshot(&mut self, payload: &[u8]) {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&payload[..8]);
        self.silenced_until = SimTime::from_be_bytes(buf);
        buf.copy_from_slice(&payload[8..16]);
        let n = u64::from_be_bytes(buf);
        let mut at = 16;
        for _ in 0..n {
            let mut len4 = [0u8; 4];
            len4.copy_from_slice(&payload[at..at + 4]);
            let len = u32::from_be_bytes(len4) as usize;
            at += 4;
            let env = ResponseEnvelope::from_canonical_bytes(&payload[at..at + len])
                .expect("snapshotted response decodes");
            at += len;
            self.decided_order
                .push_back((env.decided_at, env.correlation));
            self.decided.insert(env.correlation, env);
        }
    }

    fn journal_decision(&mut self, env: &ResponseEnvelope) {
        let mut rec = vec![PDP_JOURNAL_DECIDED];
        rec.extend_from_slice(&env.correlation.0.to_be_bytes());
        rec.extend_from_slice(&env.to_canonical_bytes());
        self.journal.append(&rec).expect("pdp journal append");
    }

    fn journal_silence(&mut self, until: SimTime) {
        let mut rec = vec![PDP_JOURNAL_SILENCE];
        rec.extend_from_slice(&until.to_be_bytes());
        self.journal.append(&rec).expect("pdp journal append");
    }

    /// Kills the slot's process state and rebuilds it: the engine from
    /// the PRP's durable active policy, the decision cache and silence
    /// window from the journal, the probe from its TPM-provisioned key.
    ///
    /// Every replayed decision re-runs the eviction pass it ran when it
    /// was taken, with its own `decided_at` as the clock, so the restarted
    /// slot holds exactly the window (and the eviction count towards the
    /// next compaction) its uncrashed twin holds. Those evictions were
    /// reported when they first happened and are not reported again; the
    /// journal is not compacted while it is being read.
    fn crash_restart(&mut self, key: &SymmetricKey, active: Pdp) {
        self.journal.simulate_crash().expect("pdp journal recovery");
        self.pdp = active;
        self.probe = Probe::new(self.probe_id, key.clone(), probe_mac_key(self.probe_id));
        self.silenced_until = 0;
        self.decided.clear();
        self.decided_order.clear();
        self.evictions_since_compact = 0;
        let base = match self.journal.read_snapshot().expect("pdp snapshot read") {
            Some((seq, payload)) => {
                self.restore_snapshot(&payload);
                seq
            }
            None => 0,
        };
        for (_, rec) in self.journal.replay_from(base).expect("pdp journal replay") {
            match rec.split_first() {
                Some((&PDP_JOURNAL_DECIDED, rest)) if rest.len() > 8 => {
                    let mut corr = [0u8; 8];
                    corr.copy_from_slice(&rest[..8]);
                    let env = ResponseEnvelope::from_canonical_bytes(&rest[8..])
                        .expect("journaled response decodes");
                    let decided_at = env.decided_at;
                    self.decided_order.push_back((decided_at, env.correlation));
                    self.decided
                        .insert(CorrelationId(u64::from_be_bytes(corr)), env);
                    self.age_out(decided_at);
                }
                Some((&PDP_JOURNAL_SILENCE, rest)) if rest.len() == 8 => {
                    let mut until = [0u8; 8];
                    until.copy_from_slice(rest);
                    self.silenced_until = SimTime::from_be_bytes(until);
                }
                _ => unreachable!("unknown pdp journal record"),
            }
        }
    }
}

/// The decision plane: the PRP (version store) plus the deployed PDPs.
pub(super) struct PdpService {
    pub(super) prp: Prp,
    pub(super) slots: Vec<PdpSlot>,
    pub(super) infra_li: usize,
    pub(super) key: SymmetricKey,
}

impl<'a> SimService<Msg, Ctx<'a>> for PdpService {
    fn handle(&mut self, now: SimTime, msg: Msg, ctx: &mut Ctx<'a>, out: &mut Outbox<Msg>) {
        match msg {
            Msg::PdpReceive { slot, env } => {
                let s = &mut self.slots[slot];
                if now < s.silenced_until {
                    // Fault window: a silent PDP neither observes nor
                    // answers — the PEP's retry budget decides whether
                    // the request survives the outage.
                    return;
                }
                if let Some(cached) = s.decided.get(&env.correlation) {
                    // Retransmission (or fault-plane duplicate) of an
                    // answered request: resend the as-sent response
                    // byte-identically. No re-observation, no adversary
                    // hooks — the originals already ran.
                    let resp_env = cached.clone();
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
                ctx.report.peak.pdp_decision_cache = ctx
                    .report
                    .peak
                    .pdp_decision_cache
                    .max(s.pdp.cache_len() as u64);
                let latency = ctx.pep_pdp.sample(&mut ctx.rngs.net);
                out.emit(
                    latency,
                    Msg::PepReceive {
                        slot,
                        env: resp_env,
                    },
                );
                ctx.report.decision_cache_evictions =
                    self.slots.iter().map(|sl| sl.pdp.cache_evictions()).sum();
            }
            Msg::PolicyAdmin(action) => {
                match action {
                    PolicyAdmin::Publish(policy) => {
                        self.prp.publish(policy);
                    }
                    PolicyAdmin::Rollback(version) => {
                        // Rollback is modelled as re-publishing the old
                        // content: the digest (and thus the version the
                        // probes log) is the old one again.
                        let old = self
                            .prp
                            .version(version)
                            .expect("script rolls back to a published version")
                            .policy
                            .as_ref()
                            .clone();
                        self.prp.publish(old);
                    }
                }
                let active = self.prp.active();
                for slot in &mut self.slots {
                    slot.pdp = active.pdp();
                }
                ctx.report.policy_activations += 1;
                out.emit(0, Msg::AnalyserPolicy(active.policy.as_ref().clone()));
            }
            Msg::SilencePdp { slot, until } => {
                self.slots[slot].silenced_until = until;
                self.slots[slot].journal_silence(until);
            }
            Msg::CrashPdp { slot } => {
                let active = self.prp.active().pdp();
                self.slots[slot].crash_restart(&self.key, active);
                // A wire backend tears down this slot's endpoint; the
                // next framed request reconnects to the restarted one.
                ctx.transport
                    .restart(WireRole::Pdp { slot: slot as u32 })
                    .expect("transport restart");
                ctx.report.crash_restarts += 1;
            }
            _ => unreachable!("misrouted event"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::MIN_RETENTION;
    use drams_faas::model::PepId;
    use drams_policy::decision::{ExtDecision, Response};

    fn slot(key: &SymmetricKey) -> PdpSlot {
        let prp = Prp::new(crate::monitor::default_policy());
        PdpSlot::new(ProbeId(0), key, prp.active().pdp(), MIN_RETENTION)
    }

    fn decide(slot: &mut PdpSlot, i: u64, now: SimTime) -> u64 {
        let env = ResponseEnvelope {
            correlation: CorrelationId(i),
            pep: PepId(1),
            response: Response::new(ExtDecision::Permit, Vec::new()),
            policy_version: slot.pdp.policy_version(),
            decided_at: now,
        };
        slot.remember(env.correlation, &env, now)
    }

    #[test]
    fn crashed_slot_replays_to_its_uncrashed_twin() {
        let key = SymmetricKey::from_bytes([42; 32]);
        let (mut twin, mut crashed) = (slot(&key), slot(&key));
        // One decision per step; a hundred steps span the retention
        // window, so every later decision evicts one — enough of them to
        // force a journal compaction and leave a tail behind it.
        let step = MIN_RETENTION / 100;
        let decisions = 100 + PDP_COMPACT_EVICTIONS + 40;
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
        assert_eq!(evicted, PDP_COMPACT_EVICTIONS + 40);
        assert!(
            crashed.journal.read_snapshot().unwrap().is_some(),
            "the journal must have compacted"
        );
        assert_eq!(crashed.evictions_since_compact, 40, "with a tail after it");

        let active = Prp::new(crate::monitor::default_policy()).active().pdp();
        crashed.crash_restart(&key, active);

        // The restarted slot holds exactly the twin's window — replay
        // re-ran the 40 evictions made since the compaction — so every
        // decision the twin can still be asked for is answered with the
        // as-sent bytes, and the silence window stands.
        assert_eq!(crashed.silenced_until, twin.silenced_until);
        assert_eq!(crashed.decided, twin.decided);
        assert_eq!(crashed.decided_order, twin.decided_order);
        assert_eq!(crashed.evictions_since_compact, 40);
        // From here on the two evict (and would report) in lockstep: the
        // run's `idempotency_evictions` is the sum of these returns.
        let next = decisions..decisions + PDP_COMPACT_EVICTIONS;
        let twin_evicted: u64 = next.clone().map(|i| decide(&mut twin, i, i * step)).sum();
        let crashed_evicted: u64 = next.map(|i| decide(&mut crashed, i, i * step)).sum();
        assert_eq!(crashed_evicted, twin_evicted);
        assert_eq!(crashed.decided, twin.decided);
        assert_eq!(crashed.decided_order, twin.decided_order);
        assert_eq!(
            crashed.evictions_since_compact,
            twin.evictions_since_compact
        );
        assert!(!crashed.decided.contains_key(&CorrelationId(0)), "evicted");
    }

    #[test]
    fn journal_compaction_waits_for_a_window_of_evictions() {
        let key = SymmetricKey::from_bytes([42; 32]);
        let mut s = slot(&key);
        // 400 steps span the retention window: from decision 400 on, each
        // decision evicts one and the window holds 400 entries — more
        // than the floor, so the window's size is the trigger.
        let window = 400;
        let step = MIN_RETENTION / window;
        let mut evicted = 0;
        let mut i = 0;
        while s.journal.read_snapshot().unwrap().is_none() {
            evicted += decide(&mut s, i, i * step);
            i += 1;
        }
        assert_eq!(evicted, window, "not one re-encode of 400 per 256 gone");
        assert_eq!(s.evictions_since_compact, 0);
        assert_eq!(s.decided.len() as u64, window);
    }
}
